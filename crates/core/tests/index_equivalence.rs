//! Equivalence tests for the dense subgraph index.
//!
//! **Index ≡ linear scan** — probing the flat per-size / position-bucket
//! / twig-sorted storage must surface exactly the handles a naive scan
//! over every inserted subgraph's registration predicate (size match,
//! position within `[pos − ∆′, pos + ∆′]`, twig among the probe's keys)
//! selects, for all three window policies and τ ∈ {0, 1, 3}.
//!
//! **Sweep ≡ rebuild** — after any interleaving of inserts, removals and
//! [`SubgraphIndex::retain_trees`] sweeps, the index is indistinguishable
//! (candidate sets, every count, a valid dump) from a fresh one fed the
//! survivors' subgraphs in insertion order: the rebuild `tsj-shard` used
//! to run for every compaction, kept here as the oracle.
//!
//! **Signature ≡ postings** — the header signature that lets a probe
//! leave a bucket unread never hides a posting: what
//! [`PostorderLayer::probe`](partsj::PostorderLayer::probe) visits is what
//! a scan of the dumped bucket selects, for label alphabets below, at and
//! above the signature's 32 bits, before and after sweeps and through
//! `restore(dump())` — and it is always the exact fold of the postings.

use partsj::{
    build_subgraphs, max_min_size, partition_tree, probe_tree_nodes, resolve_layers, select_cuts,
    window_of, Candidates, IndexDump, MatchCache, MatchSemantics, PartSjConfig, Partition,
    ProbeCounters, SubgraphIndex, TwigKeys, WindowPolicy,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsj_datagen::{grow_tree, ShapeProfile};
use tsj_tree::{BinaryTree, Label, Tree};

const WINDOWS: [WindowPolicy; 3] = [
    WindowPolicy::Safe,
    WindowPolicy::Tight,
    WindowPolicy::PaperAbsolute,
];

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
        for window in WINDOWS {
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
                            position: index.position_of(&sg),
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

/// The container trees `tree`'s probe surfaces, in discovery order.
fn candidates(index: &SubgraphIndex, cache: &mut MatchCache, tree: &Tree, tau: u32) -> Vec<u32> {
    let binary = BinaryTree::from_tree(tree);
    let size = tree.len() as u32;
    let (lo, hi) = window_of(size, tau);
    let mut layers = Vec::new();
    resolve_layers(index, lo, hi, &mut layers);
    let mut found = Candidates::new();
    found.begin(1 << 10);
    probe_tree_nodes(
        index,
        &layers,
        &binary,
        &tree.postorder_numbers(),
        size,
        MatchSemantics::Exact,
        cache,
        &mut ProbeCounters::default(),
        &mut found.sink(),
    );
    found.as_slice().to_vec()
}

fn sorted(mut ids: Vec<u32>) -> Vec<u32> {
    ids.sort_unstable();
    ids
}

/// One index under insert / remove / sweep, with everything the oracle
/// needs beside it: each inserted tree's size and subgraphs (the copy a
/// shard no longer keeps), its registration count, and who is alive.
struct Swept {
    tau: u32,
    index: SubgraphIndex,
    /// Lives across sweeps: verdicts memoized under the old component
    /// ids must not leak into probes of the renumbered index.
    cache: MatchCache,
    stored: Vec<(u32, Partition, u64)>,
    alive: Vec<bool>,
}

impl Swept {
    fn insert(&mut self, tree: &Tree) {
        let id = self.stored.len() as u32;
        let binary = BinaryTree::from_tree(tree);
        let scheme = PartSjConfig::default().partitioning;
        let subgraphs = partition_tree(&binary, &tree.postorder_numbers(), self.tau, scheme, id)
            .expect("pool trees have ≥ δ nodes");
        let before = self.index.registrations();
        self.index.insert_tree(tree.len() as u32, subgraphs.clone());
        let regs = self.index.registrations() - before;
        self.stored.push((tree.len() as u32, subgraphs, regs));
        self.alive.push(true);
    }

    /// Sweeps the dead trees out and holds the result to the rebuild.
    fn sweep_and_check(&mut self, pool: &[Tree]) {
        let tau = self.tau;
        // Warm the cache on the pre-sweep numbering.
        for tree in pool {
            candidates(&self.index, &mut self.cache, tree, tau);
        }
        let handles = (0..self.index.len() as u32).map(|h| self.index.tree_of(h));
        let doomed: std::collections::BTreeSet<u32> =
            handles.filter(|&t| !self.alive[t as usize]).collect();
        let owed: u64 = doomed.iter().map(|&t| self.stored[t as usize].2).sum();
        let alive = &self.alive;
        assert_eq!(self.index.retain_trees(|t| alive[t as usize]), owed);

        let mut fresh = SubgraphIndex::new(tau, self.index.window());
        for ((size, subgraphs, _), _) in self.stored.iter().zip(alive).filter(|(_, &alive)| alive) {
            fresh.insert_tree(*size, subgraphs.clone());
        }
        let index = &self.index;
        assert_eq!(index.len(), fresh.len());
        assert_eq!(index.is_empty(), !alive.contains(&true));
        assert_eq!(index.registrations(), fresh.registrations());
        assert_eq!(index.distinct_components(), fresh.distinct_components());
        assert_eq!(index.distinct_sizes(), fresh.distinct_sizes());
        let dump = index.dump();
        assert_eq!(dump.arena.len(), fresh.dump().arena.len());
        let restored = SubgraphIndex::restore(dump).expect("a swept index dumps validly");
        for tree in pool {
            let got = candidates(index, &mut self.cache, tree, tau);
            assert!(got.iter().all(|&t| alive[t as usize]), "dead candidate");
            let again = candidates(&restored, &mut MatchCache::new(), tree, tau);
            assert_eq!(got, again, "restore(dump()) probes identically");
            let want = candidates(&fresh, &mut MatchCache::new(), tree, tau);
            assert_eq!(sorted(got), sorted(want), "sweep ≡ rebuild");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random insert/remove/sweep interleavings, with sweep-nothing and
    /// sweep-everything (and life after it) as edge rows.
    #[test]
    fn sweep_equals_rebuild_from_survivors(seed in any::<u64>()) {
        for window in WINDOWS {
            for tau in 0u32..=3 {
                let mut rng = StdRng::seed_from_u64(seed ^ (tau as u64) << 3 ^ window as u64);
                // Few sizes, few labels, repeated arrivals: deep buckets
                // (sorted prefix *and* tail) and shared component shapes.
                let least = (2 * tau as usize + 1).max(3);
                let pool: Vec<Tree> = (0..12)
                    .map(|_| {
                        let size = rng.gen_range(least..least + 4);
                        random_tree(rng.gen(), size, 4, rng.gen_range(0.0..0.6))
                    })
                    .collect();
                let mut side = Swept {
                    tau,
                    index: SubgraphIndex::new(tau, window),
                    cache: MatchCache::new(),
                    stored: Vec::new(),
                    alive: Vec::new(),
                };
                side.sweep_and_check(&pool); // empty index
                for _ in 0..160 {
                    match rng.gen_range(0..20) {
                        0 => {
                            side.sweep_and_check(&pool);
                            side.sweep_and_check(&pool); // nothing left to sweep
                        }
                        1..=7 if !side.alive.is_empty() => {
                            let victim = rng.gen_range(0..side.alive.len());
                            side.alive[victim] = false;
                        }
                        _ => side.insert(&pool[rng.gen_range(0..pool.len())]),
                    }
                }
                side.sweep_and_check(&pool);
                side.alive.fill(false);
                side.sweep_and_check(&pool); // everything
                prop_assert_eq!(side.index.dump().arena.len(), 0);
                for tree in &pool[..4] {
                    side.insert(tree);
                }
                side.sweep_and_check(&pool);
            }
        }
    }
}

/// The handles a probe of `(layer, position)` visits, and the handles a
/// scan of that bucket's dumped postings selects for the same keys — both
/// ascending.
fn probed_and_scanned(
    index: &SubgraphIndex,
    dump: &IndexDump,
    (layer, position): (u32, u32),
    keys: &TwigKeys,
) -> (Vec<u32>, Vec<u32>) {
    let mut probed = Vec::new();
    index.layer(layer).probe(position, keys, |h| probed.push(h));
    let bucket = dump.layers[layer as usize].buckets.get(position as usize);
    let postings = bucket.map_or(&[][..], |b| &b.postings);
    let selected = postings.iter().filter(|p| keys.as_slice().contains(&p.0));
    (sorted(probed), sorted(selected.map(|p| p.1).collect()))
}

/// Every node of every pool tree, against every layer of its window:
/// probe ≡ bucket scan, and every signature is the fold of its postings.
fn signature_hides_nothing(index: &SubgraphIndex, pool: &[Tree], tau: u32) -> u64 {
    assert!(index.signatures_exact());
    let dump = index.dump();
    let mut surfaced = 0;
    for tree in pool {
        let binary = BinaryTree::from_tree(tree);
        let size = tree.len() as u32;
        let (lo, hi) = window_of(size, tau);
        let mut layers = Vec::new();
        resolve_layers(index, lo, hi, &mut layers);
        for node in binary.node_ids() {
            let label_of = |c: Option<_>| c.map_or(Label::EPSILON, |c| binary.label(c));
            let (left, right) = (label_of(binary.left(node)), label_of(binary.right(node)));
            let keys = TwigKeys::new(binary.label(node), left, right);
            let position = index.probe_position(binary.general_post()[node.index()], size);
            for &layer in &layers {
                let (probed, scanned) = probed_and_scanned(index, &dump, (layer, position), &keys);
                assert_eq!(probed, scanned, "layer {layer}, position {position}");
                surfaced += probed.len() as u64;
            }
        }
    }
    surfaced
}

/// The signature across τ × window policy × alphabet size (3 labels: few
/// bits set; 40: a bit each; 200: bits shared up to two ways),
/// on the built index, after a sweep of a quarter of the trees, through
/// `restore(dump())`, and after a sweep of everything else.
#[test]
fn signature_never_hides_a_posting() {
    for window in WINDOWS {
        for tau in 0u32..=3 {
            for labels in [3u32, 40, 200] {
                let seed = u64::from(tau) << 16 | u64::from(labels) << 2 | window as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let least = (2 * tau as usize + 1).max(3);
                let pool: Vec<Tree> = (0..24)
                    .map(|_| {
                        let size = rng.gen_range(least..least + 12);
                        random_tree(rng.gen(), size, labels, rng.gen_range(0.0..0.6))
                    })
                    .collect();
                let scheme = PartSjConfig::default().partitioning;
                let mut index = SubgraphIndex::new(tau, window);
                // Three arrivals a tree: buckets deep enough for a sorted
                // prefix, a binary-searched one and a tail.
                for (id, tree) in (0u32..).zip(pool.iter().cycle().take(3 * pool.len())) {
                    let binary = BinaryTree::from_tree(tree);
                    let partition = partition_tree(&binary, binary.general_post(), tau, scheme, id);
                    index.insert_tree(tree.len() as u32, partition.expect("≥ δ nodes"));
                }
                let built = signature_hides_nothing(&index, &pool, tau);
                assert!(built > 0, "the pool probes its own index");

                index.retain_trees(|tree| tree % 4 != 0);
                let swept = signature_hides_nothing(&index, &pool, tau);
                assert!(swept < built);
                let restored = SubgraphIndex::restore(index.dump()).expect("own dump");
                assert_eq!(signature_hides_nothing(&restored, &pool, tau), swept);

                index.retain_trees(|_| false);
                assert_eq!(signature_hides_nothing(&index, &pool, tau), 0);
            }
        }
    }
}
