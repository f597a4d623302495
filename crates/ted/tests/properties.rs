//! Property-based tests for the distance kernels: metric axioms, the
//! published lower bounds, cross-decomposition agreement, exactness of
//! the τ-bounded kernel against the full DP, soundness of the banded
//! mapping upper bound, everything derived from the left postorder
//! arrays against the constructors that read the tree, and everything
//! read off a tree's preorder columns against walks over its child lists.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsj_datagen::{grow_tree, random_edit_script, ShapeProfile};
use tsj_ted::{
    histogram_bound, label_histogram, mapping_bound_within, sed, sed_within, size_bound, ted,
    traversal_bound, tree_distance, tree_distance_bounded, MappingWorkspace, PreparedTree,
    TedBuildScratch, TedEngine, TedTree, TedWorkspace, TraversalStrings,
};
use tsj_tree::{
    apply_edit, parse_bracket, to_bracket, BinaryTree, EditOp, Label, LabelInterner, NodeId, Tree,
};

fn random_tree(seed: u64, max_size: usize) -> Tree {
    let mut rng = StdRng::seed_from_u64(seed);
    let size = rng.gen_range(1..=max_size.max(1));
    let profile = ShapeProfile {
        max_fanout: 4,
        max_depth: 8,
        deepen_prob: rng.gen_range(0.0..0.8),
    };
    grow_tree(&mut rng, size, 5, &profile)
}

/// A workspace for each decomposition's kernels and an engine that picks
/// between them, carried across many pairs so every call runs in tables
/// left dirty by other pairs and thresholds.
struct Kernels {
    left: TedWorkspace,
    right: TedWorkspace,
    dynamic: TedEngine,
}

fn kernels() -> Kernels {
    Kernels {
        left: TedWorkspace::new(),
        right: TedWorkspace::new(),
        dynamic: TedEngine::unit(),
    }
}

/// The τ-bounded kernel's contract: on the left decomposition, on the
/// right one and through the engine's choice, it answers what the full DP
/// followed by a comparison answers, and the three full DPs agree. The
/// bounded calls run first, on whatever earlier pairs left in the tables.
fn bounded_is_exact(k: &mut Kernels, a: &Tree, b: &Tree, taus: &[u32]) -> Result<(), String> {
    let (pa, pb) = (PreparedTree::new(a), PreparedTree::new(b));
    let got: Vec<_> = taus
        .iter()
        .map(|&tau| {
            [
                tree_distance_bounded(pa.left(), pb.left(), tau, &mut k.left),
                tree_distance_bounded(pa.right(), pb.right(), tau, &mut k.right),
                k.dynamic.verify(&pa, &pb, tau),
            ]
        })
        .collect();
    let full = [
        tree_distance(pa.left(), pb.left(), &mut k.left),
        tree_distance(pa.right(), pb.right(), &mut k.right),
        k.dynamic.distance(&pa, &pb),
    ];
    let d = full[0];
    for (&tau, got) in taus.iter().zip(got) {
        let want = (d <= tau).then_some(d);
        if full != [d; 3] || got != [want; 3] {
            return Err(format!(
                "(left, right, dynamic) bounded {got:?}, full {full:?} at tau {tau}: \
                 {:?} vs {:?}",
                a.flatten(),
                b.flatten()
            ));
        }
    }
    Ok(())
}

/// Zhang's constrained mapping distance with both run moves, unbanded and
/// unsaturated, straight from the recurrence over [`Tree`] child lists:
/// what `mapping_bound_within` computes when its band loses nothing.
struct Constrained<'t> {
    a: &'t Tree,
    b: &'t Tree,
    kids_a: &'t [Vec<NodeId>],
    kids_b: &'t [Vec<NodeId>],
    size_a: Vec<u32>,
    size_b: Vec<u32>,
    /// `(subtree cost, child-forest cost)` per node pair.
    memo: Vec<Option<(u32, u32)>>,
}

impl<'t> Constrained<'t> {
    fn distance(a: &Tree, b: &Tree) -> u32 {
        let child_lists = |tree: &Tree| -> Vec<Vec<NodeId>> {
            let kids = |node| tree.children(node).collect();
            tree.node_ids().map(kids).collect()
        };
        let (kids_a, kids_b) = (child_lists(a), child_lists(b));
        let mut pairs = Constrained {
            a,
            b,
            kids_a: &kids_a,
            kids_b: &kids_b,
            size_a: a.subtree_sizes(),
            size_b: b.subtree_sizes(),
            memo: vec![None; a.len() * b.len()],
        };
        pairs.pair(a.root(), b.root()).0
    }

    fn pair(&mut self, x: NodeId, y: NodeId) -> (u32, u32) {
        let slot = x.index() * self.b.len() + y.index();
        if let Some(done) = self.memo[slot] {
            return done;
        }
        let (a, b) = (self.a, self.b);
        let (xs, ys) = (&self.kids_a[x.index()], &self.kids_b[y.index()]);
        let mut forest = self.child_edit(xs, ys);
        let mut tree = u32::MAX;
        for &c in ys {
            let (t, f) = self.pair(x, c);
            let rest = self.size_b[y.index()] - self.size_b[c.index()];
            (tree, forest) = (tree.min(t + rest), forest.min(f + rest));
        }
        for &c in xs {
            let (t, f) = self.pair(c, y);
            let rest = self.size_a[x.index()] - self.size_a[c.index()];
            (tree, forest) = (tree.min(t + rest), forest.min(f + rest));
        }
        let tree = tree.min(forest + u32::from(a.label(x) != b.label(y)));
        self.memo[slot] = Some((tree, forest));
        (tree, forest)
    }

    fn run(&mut self, xs: &[NodeId], ys: &[NodeId]) -> u32 {
        1 + xs
            .iter()
            .zip(ys)
            .map(|(&x, &y)| self.pair(x, y).0)
            .sum::<u32>()
    }

    fn child_edit(&mut self, xs: &[NodeId], ys: &[NodeId]) -> u32 {
        let (kids_a, kids_b) = (self.kids_a, self.kids_b);
        let w = ys.len() + 1;
        let mut e = vec![0u32; (xs.len() + 1) * w];
        for t in 1..w {
            e[t] = e[t - 1] + self.size_b[ys[t - 1].index()];
        }
        for s in 1..=xs.len() {
            let x = xs[s - 1];
            let delete = self.size_a[x.index()];
            e[s * w] = e[(s - 1) * w] + delete;
            for t in 1..w {
                let y = ys[t - 1];
                let mut d = (e[(s - 1) * w + t] + delete)
                    .min(e[s * w + t - 1] + self.size_b[y.index()])
                    .min(e[(s - 1) * w + t - 1] + self.pair(x, y).0);
                let (inserted, deleted) = (&kids_b[y.index()], &kids_a[x.index()]);
                if (2..=s).contains(&inserted.len()) {
                    let m = inserted.len();
                    d = d.min(e[(s - m) * w + t - 1] + self.run(&xs[s - m..s], inserted));
                }
                if (2..=t).contains(&deleted.len()) {
                    let m = deleted.len();
                    d = d.min(e[(s - 1) * w + t - m] + self.run(deleted, &ys[t - m..t]));
                }
                e[s * w + t] = d;
            }
        }
        e[xs.len() * w + ys.len()]
    }
}

/// The mapping bound's contract on one pair at each of `taus`: never below
/// TED, never above τ, never below the unbanded bound, and `Some` exactly
/// when the unbanded bound is within τ — the band loses nothing.
fn mapping_bound_holds(
    ws: &mut MappingWorkspace,
    a: &Tree,
    b: &Tree,
    taus: &[u32],
) -> Result<(), String> {
    let (pa, pb) = (TedTree::new(a), TedTree::new(b));
    let d = tree_distance(&pa, &pb, &mut TedWorkspace::new());
    let unbanded = Constrained::distance(a, b);
    for &tau in taus {
        let got = mapping_bound_within(&pa, &pb, tau, ws);
        let sound = got.is_none_or(|ub| d <= ub && unbanded <= ub && ub <= tau);
        if !sound || got.is_some() != (unbanded <= tau) {
            return Err(format!(
                "bound {got:?} at tau {tau}, TED {d}, unbanded {unbanded}: {:?} vs {:?}",
                a.flatten(),
                b.flatten()
            ));
        }
    }
    Ok(())
}

/// Every single edit of `tree`: a rename of each node to `label`, the
/// delete of each non-root node, and an insert under each node over every
/// run of its children (empty runs included).
fn every_single_edit(tree: &Tree, label: Label) -> Vec<EditOp> {
    let mut ops = Vec::new();
    for node in tree.node_ids() {
        ops.push(EditOp::Rename { node, label });
        if node != tree.root() {
            ops.push(EditOp::Delete { node });
        }
        let available = tree.children(node).count();
        for start in 0..=available {
            for count in 0..=available - start {
                ops.push(EditOp::Insert {
                    parent: node,
                    start,
                    count,
                    label,
                });
            }
        }
    }
    ops
}

/// The thresholds every pair is checked at: the small ones joins use, one
/// past any band (`≥ |T|`), and the top-k search's "no threshold yet".
fn thresholds(a: &Tree, b: &Tree) -> [u32; 9] {
    let largest = a.len().max(b.len()) as u32;
    [0, 1, 2, 3, 6, 13, largest, largest + 5, u32::MAX]
}

/// A tree from its preorder parent positions (`parents[0]` is ignored);
/// bit `k` of `mask` picks the label of preorder node `k` out of two.
fn tree_of(parents: &[u32], mask: u32) -> Tree {
    let nodes: Vec<_> = parents
        .iter()
        .enumerate()
        .map(|(k, &parent)| {
            let label = Label::from_raw(1 + ((mask >> k) & 1));
            (label, (k > 0).then_some(parent))
        })
        .collect();
    Tree::from_flattened(&nodes).expect("parents precede their children")
}

/// Degenerate shapes random growth rarely produces, `n` nodes each, as
/// preorder parent positions: a path, a star, and the two combs (a spine
/// with one leaf hanging off every spine node, left or right of the next
/// spine node).
fn corner_shapes(n: usize) -> Vec<Vec<u32>> {
    let n = n as u32;
    let path = (0..n).map(|k| k.saturating_sub(1)).collect();
    let star = vec![0; n as usize];
    // Leaf first, spine continues to its right: spine nodes sit at the
    // even preorder positions, each followed by its leaf.
    let right_comb = (0..n).map(|k| k.saturating_sub(1) & !1).collect();
    // Its mirror image: the spine is a path of the first ⌈n/2⌉ nodes, then
    // come the leaves, the deepest spine node's first and the root's last.
    let left_comb = (0..n)
        .map(|k| {
            if k < n.div_ceil(2) {
                k.saturating_sub(1)
            } else {
                n - 1 - k
            }
        })
        .collect();
    vec![path, star, left_comb, right_comb]
}

/// Every ordered tree shape of `n` nodes, as preorder parent positions:
/// node `k` hangs off any node on the rightmost path of the first `k`.
fn all_shapes(n: usize) -> Vec<Vec<u32>> {
    let mut shapes = vec![vec![0u32]];
    for k in 1..n as u32 {
        let mut grown = Vec::new();
        for shape in &shapes {
            let mut parent = k - 1;
            loop {
                let mut next = shape.clone();
                next.push(parent);
                grown.push(next);
                if parent == 0 {
                    break;
                }
                parent = shape[parent as usize];
            }
        }
        shapes = grown;
    }
    shapes
}

/// Every field of a preprocessed form.
fn fields(t: &TedTree) -> (&[Label], &[u32], &[u32], u64) {
    (t.labels(), t.llds(), t.keyroots(), t.decomposition_cost())
}

/// What the hybrid derives from a tree's left arrays, against what
/// walking the tree builds: the mirrored form field for field, its cost
/// without building it, and both traversal strings. `scratch` arrives
/// dirty from other trees.
fn derivations_match_the_tree(tree: &Tree, scratch: &mut TedBuildScratch) -> Result<(), String> {
    let check = |ok: bool, what: &str| {
        ok.then_some(())
            .ok_or_else(|| format!("{what}: {:?}", tree.flatten()))
    };
    let left = TedTree::new(tree);
    let mirrored = TedTree::mirrored(tree);
    let derived = TedTree::mirror_of(&left, scratch);
    check(fields(&derived) == fields(&mirrored), "derived mirror")?;
    let right_cost = mirrored.decomposition_cost();
    check(left.mirror_cost() == right_cost, "mirror cost")?;
    check(
        mirrored.mirror_cost() == left.decomposition_cost(),
        "and back",
    )?;

    let strings = TraversalStrings::new(tree);
    check(left.labels() == strings.postorder, "postorder string")?;
    let reversed: Vec<Label> = derived.labels().iter().rev().copied().collect();
    check(reversed == strings.preorder, "preorder string")?;

    let prepared = PreparedTree::new(tree);
    check(!prepared.right_built(), "mirror built ahead of time")?;
    let costs = (prepared.left_cost(), prepared.right_cost());
    check(costs == (left.decomposition_cost(), right_cost), "costs")?;
    check(fields(prepared.right()) == fields(&mirrored), "lazy mirror")?;
    check(prepared.right_built(), "mirror not kept")
}

/// The Zhang–Shasha arrays of `tree` by a postorder walk over its child
/// lists (right to left for the mirror): labels, `lld`, keyroots (no
/// later node shares their `lld`) and the Σ of their spans.
fn walked_arrays(tree: &Tree, mirror: bool) -> (Vec<Label>, Vec<u32>, Vec<u32>, u64) {
    fn walk(tree: &Tree, node: NodeId, mirror: bool, out: &mut (Vec<Label>, Vec<u32>)) -> u32 {
        let mut kids: Vec<NodeId> = tree.children(node).collect();
        if mirror {
            kids.reverse();
        }
        let firsts: Vec<u32> = kids.iter().map(|&c| walk(tree, c, mirror, out)).collect();
        let post = out.0.len() as u32 + 1;
        let lld = firsts
            .first()
            .map_or(post, |&first| out.1[first as usize - 1]);
        out.0.push(tree.label(node));
        out.1.push(lld);
        post
    }
    let mut out = (Vec::new(), Vec::new());
    walk(tree, tree.root(), mirror, &mut out);
    let (labels, lld) = out;
    let n = lld.len();
    let keyroots: Vec<u32> = (1..=n as u32)
        .filter(|&i| {
            lld[i as usize..]
                .iter()
                .all(|&later| later != lld[i as usize - 1])
        })
        .collect();
    let cost = keyroots
        .iter()
        .map(|&k| u64::from(k + 1 - lld[k as usize - 1]))
        .sum();
    (labels, lld, keyroots, cost)
}

/// Every array the preorder columns give by arithmetic, against a walk
/// over `tree`'s child lists: the ids are preorder; `BinaryTree`'s left
/// and right children, binary subtree sizes, binary postorder and general
/// postorder numbers; `TedTree`'s labels, `lld`, keyroots and both costs,
/// left and mirrored.
fn columns_match_the_walks(tree: &Tree) -> Result<(), String> {
    let check = |ok: bool, what: &str| {
        ok.then_some(())
            .ok_or_else(|| format!("{what}: {:?}", tree.flatten()))
    };
    let n = tree.len();
    let (mut preorder, mut stack) = (Vec::new(), vec![tree.root()]);
    while let Some(node) = stack.pop() {
        preorder.push(node);
        let kids: Vec<NodeId> = tree.children(node).collect();
        stack.extend(kids.into_iter().rev());
    }
    check(
        preorder == tree.node_ids().collect::<Vec<_>>(),
        "ids are preorder",
    )?;

    // LC-RS links from the child lists, then their postorder walk.
    let (mut left, mut right) = (vec![None; n], vec![None; n]);
    for node in tree.node_ids() {
        let kids: Vec<NodeId> = tree.children(node).collect();
        left[node.index()] = kids.first().copied();
        for pair in kids.windows(2) {
            right[pair[0].index()] = Some(pair[1]);
        }
    }
    fn binary_walk(
        links: &[Vec<Option<NodeId>>; 2],
        node: Option<NodeId>,
        out: &mut Vec<NodeId>,
    ) -> u32 {
        let Some(v) = node else { return 0 };
        let below = binary_walk(links, links[0][v.index()], out)
            + binary_walk(links, links[1][v.index()], out);
        out.push(v);
        below + 1
    }
    let links = [left, right];
    let binary = BinaryTree::from_tree(tree);
    let mut walked = Vec::new();
    binary_walk(&links, Some(tree.root()), &mut walked);
    let mut rank = vec![0; n];
    for (k, v) in walked.iter().enumerate() {
        rank[v.index()] = k;
    }
    for (a, b) in tree
        .node_ids()
        .flat_map(|a| tree.node_ids().map(move |b| (a, b)))
    {
        let want = rank[a.index()].cmp(&rank[b.index()]);
        check(binary.post_cmp(a, b) == want, "binary postorder")?;
    }
    for node in tree.node_ids() {
        let (l, r) = (links[0][node.index()], links[1][node.index()]);
        check(
            (binary.left(node), binary.right(node)) == (l, r),
            "left/right",
        )?;
        let size = binary_walk(&links, Some(node), &mut Vec::new());
        check(binary.subtree_size(node) == size, "binary subtree size")?;
    }
    fn general_walk(tree: &Tree, node: NodeId, out: &mut Vec<NodeId>) {
        for child in tree.children(node) {
            general_walk(tree, child, out);
        }
        out.push(node);
    }
    let mut postorder = Vec::new();
    general_walk(tree, tree.root(), &mut postorder);
    let mut general_post = vec![0; n];
    for (post, &node) in (1..).zip(&postorder) {
        general_post[node.index()] = post;
    }
    let (labels, lld, _, _) = walked_arrays(tree, false);
    check(tree.postorder() == postorder, "postorder")?;
    check(tree.postorder_labels() == labels, "postorder labels")?;
    check(binary.general_post() == general_post, "general postorder")?;
    check(
        tree.postorder_numbers() == general_post,
        "postorder numbers",
    )?;
    check(lld.len() == n, "walk covers the tree")?;

    let scratch = &mut TedBuildScratch::new();
    for mirror in [false, true] {
        let (labels, lld, keyroots, cost) = walked_arrays(tree, mirror);
        let (.., other_cost) = walked_arrays(tree, !mirror);
        let mut built = TedTree::new(&Tree::leaf(Label::from_raw(9)));
        built.rebuild(tree, mirror, scratch);
        let got = (
            built.labels(),
            built.llds(),
            built.keyroots(),
            built.decomposition_cost(),
        );
        check(
            got == (&labels[..], &lld[..], &keyroots[..], cost),
            "Zhang–Shasha arrays",
        )?;
        check(built.mirror_cost() == other_cost, "mirror cost")?;
    }
    Ok(())
}

/// Preorder child counts: the shape as the eager design spelled it.
fn degree_sequence(tree: &Tree) -> Vec<usize> {
    let degree = |&n| tree.children(n).count();
    tree.preorder().iter().map(degree).collect()
}

#[test]
fn derivations_hold_on_corner_shapes_and_every_small_shape() {
    let scratch = &mut TedBuildScratch::new();
    let corners = [1, 2, 3, 8, 31].into_iter().flat_map(corner_shapes);
    let small: Vec<Vec<u32>> = (1..=6).flat_map(all_shapes).collect();
    for shape in corners.chain(small.iter().cloned()) {
        derivations_match_the_tree(&tree_of(&shape, 0b0110_1001_1011), scratch).unwrap();
    }
    // `lld` arrays are equal exactly when the shapes are, whatever the labels.
    for (i, a) in small.iter().enumerate() {
        for (j, b) in small.iter().enumerate() {
            let (a, b) = (tree_of(a, 0), tree_of(b, 0b10_1101));
            let same_llds = TedTree::new(&a).llds() == TedTree::new(&b).llds();
            assert_eq!(same_llds, i == j, "{:?} vs {:?}", a.flatten(), b.flatten());
            assert_eq!(same_llds, degree_sequence(&a) == degree_sequence(&b));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The derivations on random trees, and `lld` equality against degree
    /// sequence equality on a random pair and on an edited copy (a rename
    /// keeps the shape, anything else changes it).
    #[test]
    fn derivations_match_on_random_trees(a in any::<u64>(), b in any::<u64>(), k in 0usize..3) {
        let (ta, tb) = (random_tree(a, 40), random_tree(b, 6));
        let edited = random_edit_script(&ta, k, &mut StdRng::seed_from_u64(b), 5).0;
        let scratch = &mut TedBuildScratch::new();
        for tree in [&ta, &tb, &edited] {
            prop_assert_eq!(derivations_match_the_tree(tree, scratch), Ok(()));
        }
        for (x, y) in [(&ta, &tb), (&ta, &edited), (&tb, &tb)] {
            let same_llds = TedTree::new(x).llds() == TedTree::new(y).llds();
            prop_assert_eq!(same_llds, degree_sequence(x) == degree_sequence(y));
        }
    }

    /// The column arithmetic against the walks on trees from every source:
    /// a grown tree (its builder calls are not in preorder, so `build`
    /// renumbers), its bracket form parsed back, an edited copy, and its
    /// flattened form decoded.
    #[test]
    fn column_arithmetic_matches_the_walks(seed in any::<u64>(), k in 1usize..4) {
        let grown = random_tree(seed, 40);
        let mut labels = LabelInterner::new();
        for raw in 1..=5 {
            labels.intern(&format!("l{raw}"));
        }
        let text = to_bracket(&grown, &labels);
        let parsed = parse_bracket(&text, &mut labels).unwrap();
        let edited = random_edit_script(&grown, k, &mut StdRng::seed_from_u64(!seed), 5).0;
        let decoded = Tree::from_flattened(&grown.flatten()).unwrap();
        prop_assert!(decoded.structurally_eq(&grown));
        for tree in [&grown, &parsed, &edited, &decoded] {
            prop_assert_eq!(columns_match_the_walks(tree), Ok(()));
        }
    }

    /// Bounded TED on unrelated random trees: mostly misses, early exits
    /// and size rejections.
    #[test]
    fn bounded_ted_is_exact_on_random_pairs(a in any::<u64>(), b in any::<u64>()) {
        let (ta, tb) = (random_tree(a, 40), random_tree(b, 40));
        let k = &mut kernels();
        bounded_is_exact(k, &ta, &tb, &thresholds(&ta, &tb))?;
        bounded_is_exact(k, &tb, &ta, &thresholds(&ta, &tb))?;
    }

    /// Bounded TED on a tree and its mutant: hits at every distance up to
    /// the script length, the case a join's survivors are.
    #[test]
    fn bounded_ted_is_exact_on_mutants(seed in any::<u64>(), edits in 0usize..=12) {
        let tree = random_tree(seed, 60);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let (mutant, _) = random_edit_script(&tree, edits, &mut rng, 5);
        let k = &mut kernels();
        bounded_is_exact(k, &tree, &mutant, &thresholds(&tree, &mutant))?;
        bounded_is_exact(k, &mutant, &tree, &thresholds(&tree, &mutant))?;
    }

    /// Bounded TED on paths, stars and combs against each other and
    /// against their mutants, with two labels and with one.
    #[test]
    fn bounded_ted_is_exact_on_corner_shapes(
        seed in any::<u64>(),
        n in 1usize..=24,
        m in 1usize..=24,
        edits in 0usize..=4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = &mut kernels();
        for shape_a in corner_shapes(n) {
            // Single-label trees, then two labels sprinkled at random.
            for mask in [0, rng.gen::<u32>()] {
                let ta = tree_of(&shape_a, mask);
                let (mutant, _) = random_edit_script(&ta, edits, &mut rng, 2);
                bounded_is_exact(k, &ta, &mutant, &thresholds(&ta, &mutant))?;
                for shape_b in corner_shapes(m) {
                    let tb = tree_of(&shape_b, mask & rng.gen::<u32>());
                    bounded_is_exact(k, &ta, &tb, &thresholds(&ta, &tb))?;
                }
            }
        }
    }

    /// The mapping bound on a tree and its mutant, both ways round, and on
    /// an unrelated tree: sound at every threshold a join runs.
    #[test]
    fn mapping_bound_is_never_below_ted(seed in any::<u64>(), edits in 0usize..=8) {
        let tree = random_tree(seed, 40);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0b0d);
        let (mutant, _) = random_edit_script(&tree, edits, &mut rng, 5);
        let other = random_tree(seed ^ 0x07e2, 40);
        let ws = &mut MappingWorkspace::new();
        let taus = [0, 1, 2, 3, 6];
        for (a, b) in [(&tree, &mutant), (&mutant, &tree), (&tree, &other)] {
            prop_assert_eq!(mapping_bound_holds(ws, a, b, &taus), Ok(()));
        }
    }

    /// Every single edit — a rename, the delete of any non-root node, an
    /// insert over any run of children — costs exactly TED under the
    /// bound: the two run moves cover what a constrained mapping cannot.
    #[test]
    fn one_edit_is_bounded_exactly(seed in any::<u64>()) {
        let tree = random_tree(seed, 24);
        let label = Label::from_raw(1 + (seed % 5) as u32);
        let (pa, ws) = (TedTree::new(&tree), &mut MappingWorkspace::new());
        for op in every_single_edit(&tree, label) {
            let edited = apply_edit(&tree, &op).expect("a valid edit");
            let pb = TedTree::new(&edited);
            let d = ted(&tree, &edited);
            prop_assert_eq!(mapping_bound_within(&pa, &pb, 1, ws), Some(d), "{:?}", op);
            prop_assert_eq!(mapping_bound_within(&pb, &pa, 1, ws), Some(d), "{:?}", op);
        }
    }

    /// TED is a metric: identity, symmetry, triangle inequality.
    #[test]
    fn ted_is_a_metric(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (ta, tb, tc) = (random_tree(a, 20), random_tree(b, 20), random_tree(c, 20));
        let mut engine = TedEngine::unit();

        prop_assert_eq!(engine.distance_trees(&ta, &ta), 0);
        let dab = engine.distance_trees(&ta, &tb);
        let dba = engine.distance_trees(&tb, &ta);
        prop_assert_eq!(dab, dba, "symmetry");
        if ta.structurally_eq(&tb) {
            prop_assert_eq!(dab, 0);
        } else {
            prop_assert!(dab > 0, "distinct trees must have positive distance");
        }
        let dac = engine.distance_trees(&ta, &tc);
        let dcb = engine.distance_trees(&tc, &tb);
        prop_assert!(dab <= dac + dcb, "triangle: {} > {} + {}", dab, dac, dcb);
    }

    /// Left, right, and dynamic decompositions compute the same value.
    #[test]
    fn decompositions_agree(a in any::<u64>(), b in any::<u64>()) {
        let (ta, tb) = (random_tree(a, 24), random_tree(b, 24));
        let (pa, pb) = (PreparedTree::new(&ta), PreparedTree::new(&tb));
        let left = tree_distance(pa.left(), pb.left(), &mut TedWorkspace::new());
        let right = tree_distance(pa.right(), pb.right(), &mut TedWorkspace::new());
        let dynamic = TedEngine::unit().distance_trees(&ta, &tb);
        prop_assert_eq!(left, right);
        prop_assert_eq!(left, dynamic);
    }

    /// A script of k random edits never yields a distance above k, and the
    /// size/histogram/traversal bounds never exceed the true distance.
    #[test]
    fn bounds_sandwich_ted(seed in any::<u64>(), k in 0usize..6) {
        let tree = random_tree(seed, 22);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
        let (edited, _) = random_edit_script(&tree, k, &mut rng, 5);
        let d = ted(&tree, &edited);
        prop_assert!(d <= k as u32, "TED {} > edit script length {}", d, k);

        prop_assert!(size_bound(tree.len(), edited.len()) <= d);
        let (ha, hb) = (label_histogram(&tree), label_histogram(&edited));
        prop_assert!(histogram_bound(&ha, &hb) <= d, "histogram bound violated");
        let (sa, sb) = (TraversalStrings::new(&tree), TraversalStrings::new(&edited));
        prop_assert!(traversal_bound(&sa, &sb) <= d, "Guha bound violated");
    }

    /// The traversal bound also holds for unrelated trees.
    #[test]
    fn guha_bound_on_unrelated_trees(a in any::<u64>(), b in any::<u64>()) {
        let (ta, tb) = (random_tree(a, 18), random_tree(b, 18));
        let d = ted(&ta, &tb);
        let (sa, sb) = (TraversalStrings::new(&ta), TraversalStrings::new(&tb));
        prop_assert!(traversal_bound(&sa, &sb) <= d);
    }

    /// Banded SED agrees with the full DP at every threshold.
    #[test]
    fn banded_sed_agrees(a in any::<u64>(), b in any::<u64>(), tau in 0u32..8) {
        let (ta, tb) = (random_tree(a, 20), random_tree(b, 20));
        let (pa, pb) = (ta.preorder_labels(), tb.preorder_labels());
        let full = sed(&pa, &pb);
        match sed_within(&pa, &pb, tau) {
            Some(d) => {
                prop_assert_eq!(d, full);
                prop_assert!(d <= tau);
            }
            None => prop_assert!(full > tau),
        }
    }

    /// TED against a single-leaf tree equals (almost) the tree size: keep
    /// the root if labels match, otherwise one more op.
    #[test]
    fn distance_to_leaf(seed in any::<u64>()) {
        let tree = random_tree(seed, 20);
        let leaf = Tree::leaf(tree.label(tree.root()));
        let d = ted(&tree, &leaf);
        prop_assert_eq!(d as usize, tree.len() - 1);
    }
}

/// Exhaustive soak of both τ-banded kernels on small trees, where every
/// pruning's edge (band edge, sentinel, skipped keyroot pair, early exit,
/// saturation) is hit from every side: every ordered pair of two-label
/// trees up to 5 nodes, every ordered pair of tree *shapes* up to 7 nodes
/// under three labelings, and paths, stars and both combs up to 12 nodes,
/// at every τ ≤ 8 and past every band. The bounded TED kernel must be
/// exact; the mapping bound never below TED and `Some` exactly when its
/// unbanded value is within τ. CI runs it in release
/// (`cargo test --release -p tsj-ted -- --ignored`).
#[test]
#[ignore = "exhaustive: about a minute in release, far longer in debug"]
fn bounded_ted_exhaustive_small_trees() {
    let taus: Vec<u32> = (0..=8).chain([12, 13, u32::MAX]).collect();
    let k = &mut kernels();
    let ws = &mut MappingWorkspace::new();
    let mut soak = |trees: &[Tree]| {
        for a in trees {
            for b in trees {
                bounded_is_exact(k, a, b, &taus).unwrap();
                mapping_bound_holds(ws, a, b, &taus).unwrap();
            }
        }
    };

    let all_labelings: Vec<Tree> = (1..=5)
        .flat_map(|n| {
            all_shapes(n)
                .into_iter()
                .flat_map(move |shape| (0..1u32 << n).map(move |mask| tree_of(&shape, mask)))
        })
        .collect();
    assert_eq!(all_labelings.len(), 2 + 4 + 2 * 8 + 5 * 16 + 14 * 32);
    soak(&all_labelings);

    let shapes: Vec<Vec<u32>> = (1..=7).flat_map(all_shapes).collect();
    assert_eq!(shapes.len(), 1 + 1 + 2 + 5 + 14 + 42 + 132);
    let three_labelings: Vec<Tree> = shapes
        .iter()
        .enumerate()
        .flat_map(|(idx, shape)| {
            let scrambled = (idx as u32).wrapping_mul(0x9E37_79B9) >> 13;
            [0, 0b101_0101, scrambled].map(|mask| tree_of(shape, mask))
        })
        .collect();
    soak(&three_labelings);

    let corners: Vec<Tree> = (1..=12)
        .flat_map(corner_shapes)
        .flat_map(|shape| [0, 0b0110_1001_1011].map(|mask| tree_of(&shape, mask)))
        .collect();
    soak(&corners);
}

#[test]
fn corner_shapes_are_the_shapes_they_claim() {
    let shapes = corner_shapes(7);
    let degrees = |parents: &[u32]| {
        let tree = tree_of(parents, 0);
        let mut degrees: Vec<usize> = tree
            .preorder()
            .iter()
            .map(|&n| tree.children(n).count())
            .collect();
        degrees.truncate(4);
        (tree.len(), tree.max_depth(), degrees)
    };
    assert_eq!(degrees(&shapes[0]), (7, 6, vec![1, 1, 1, 1]), "path");
    assert_eq!(degrees(&shapes[1]), (7, 1, vec![6, 0, 0, 0]), "star");
    assert_eq!(degrees(&shapes[2]), (7, 3, vec![2, 2, 2, 0]), "left comb");
    assert_eq!(degrees(&shapes[3]), (7, 3, vec![2, 0, 2, 0]), "right comb");
}
