//! Micro-benchmarks of the two-layer subgraph index (§3.4): insertion of
//! a partitioned tree, per-node probes under the three window policies,
//! probes that can surface nothing (a join's common case: the layer's
//! root-signature column answers them), a probe window spread over the
//! shards of a sharded index, and the in-place sweep of dead trees. Probe
//! cost is the core of PartSJ's candidate-generation bars; the sweep is
//! what a streaming shard pays when its dead fraction trips.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use partsj::{
    build_subgraphs, max_min_size, partition_tree, select_cuts, window_of, Candidates, MatchCache,
    MatchSemantics, PartSjConfig, ProbeCounters, SubgraphIndex, TwigKeys, WindowPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tsj_datagen::{grow_tree, mutate, ShapeProfile};
use tsj_shard::{ShardConfig, ShardedIndex};
use tsj_tree::{BinaryTree, Label, Tree};

fn sample_trees(count: usize, size: usize, labels: u32, seed: u64) -> Vec<Tree> {
    let profile = ShapeProfile {
        max_fanout: 4,
        max_depth: 12,
        deepen_prob: 0.3,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let base = grow_tree(&mut rng, size, labels, &profile);
    (0..count)
        .map(|_| mutate(&base, 0.05, &mut rng, labels))
        .collect()
}

fn build_index(trees: &[Tree], tau: u32, window: WindowPolicy) -> (SubgraphIndex, Vec<BinaryTree>) {
    let delta = 2 * tau as usize + 1;
    let mut index = SubgraphIndex::new(tau, window);
    let binaries: Vec<BinaryTree> = trees.iter().map(BinaryTree::from_tree).collect();
    for (i, (tree, binary)) in trees.iter().zip(&binaries).enumerate() {
        if tree.len() < delta {
            continue;
        }
        let gamma = max_min_size(binary, delta);
        let cuts = select_cuts(binary, delta, gamma);
        let sgs = build_subgraphs(binary, &tree.postorder_numbers(), &cuts, i as u32);
        index.insert_tree(tree.len() as u32, sgs);
    }
    (index, binaries)
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("index/insert_tree");
    for tau in [1u32, 3, 5] {
        let trees = sample_trees(1, 80, 20, 7);
        let tree = &trees[0];
        let binary = BinaryTree::from_tree(tree);
        let delta = 2 * tau as usize + 1;
        let gamma = max_min_size(&binary, delta);
        let cuts = select_cuts(&binary, delta, gamma);
        let posts = tree.postorder_numbers();
        group.bench_with_input(BenchmarkId::new("tau", tau), &tau, |bench, &tau| {
            bench.iter(|| {
                let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
                let sgs = build_subgraphs(&binary, &posts, &cuts, 0);
                index.insert_tree(tree.len() as u32, sgs);
                black_box(index.len())
            })
        });
    }
    group.finish();
}

/// The production probe shape: size layers resolved once per tree, twig
/// keys once per node, match scratch reused. Returns the matches.
fn probe_all_nodes(index: &SubgraphIndex, probe: &BinaryTree, tau: u32) -> u64 {
    let size = probe.len() as u32;
    let mut hits = 0u64;
    let layers: Vec<_> = (size.saturating_sub(tau)..=size)
        .filter_map(|n| index.layer_id(n))
        .collect();
    let mut match_cache = MatchCache::new();
    for node in probe.node_ids() {
        let label_of = |c: Option<_>| c.map_or(Label::EPSILON, |c| probe.label(c));
        let (left, right) = (label_of(probe.left(node)), label_of(probe.right(node)));
        let keys = TwigKeys::new(probe.label(node), left, right);
        match_cache.begin_node();
        let pos = index.probe_position(probe.general_post()[node.index()], size);
        for &layer in &layers {
            index.layer(layer).probe(pos, &keys, |handle| {
                let semantics = MatchSemantics::Exact;
                if index.matches_at(handle, probe, node, semantics, &mut match_cache) {
                    hits += 1;
                }
            });
        }
    }
    hits
}

/// What over 99 % of a join's probes are: a node whose label roots no
/// subgraph of the bucket it lands in. A 600-tree index over labels
/// 1..=10, probed by its own trees relabelled to 11..=20 — same shapes,
/// sizes and positions, no root label (and no signature bit) shared, so
/// every probe is answered by the root-signature column.
/// `index/probe_all_nodes`
/// is the same loop with hits.
fn bench_probe_miss(c: &mut Criterion) {
    let mut group = c.benchmark_group("index/probe_miss");
    let tau = 2u32;
    let trees = sample_trees(600, 60, 10, 13);
    let (index, _) = build_index(&trees, tau, WindowPolicy::Safe);
    let strangers: Vec<BinaryTree> = trees[..8]
        .iter()
        .map(|tree| {
            let mut nodes = tree.flatten();
            for (label, _) in &mut nodes {
                *label = Label::from_raw(label.raw() + 10);
            }
            BinaryTree::from_tree(&Tree::from_flattened(&nodes).expect("relabelled"))
        })
        .collect();
    group.bench_function("600_trees/8_strangers", |bench| {
        bench.iter(|| {
            let hits: u64 = strangers
                .iter()
                .map(|probe| probe_all_nodes(&index, probe, tau))
                .sum();
            assert_eq!(hits, 0);
            black_box(hits)
        })
    });
    group.finish();
}

fn bench_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("index/probe_all_nodes");
    let tau = 3u32;
    let trees = sample_trees(200, 60, 20, 9);
    for (name, window) in [
        ("safe", WindowPolicy::Safe),
        ("tight", WindowPolicy::Tight),
        ("paper", WindowPolicy::PaperAbsolute),
    ] {
        let (index, _) = build_index(&trees, tau, window);
        let probe_bin = BinaryTree::from_tree(&trees[0]);
        group.bench_function(name, |bench| {
            bench.iter(|| black_box(probe_all_nodes(&index, &probe_bin, tau)))
        });
    }
    group.finish();
}

/// One probe window across the 4 shards of a streaming-shaped index
/// (`stream_window`'s τ = 2 and shard count): 540 trees of sizes 56–64,
/// probed by 8 of them whose size window `[n − 2, n + 2]` spreads over
/// all 4 shards. `one_walk` is `ShardedIndex::probe_tree` (the tree's
/// nodes walked once for every shard); `per_shard` is the same window as
/// one `probe_shard` walk per shard, the same candidates and counts.
fn bench_probe_tree_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("index/probe_tree_sharded");
    let (tau, config) = (2u32, PartSjConfig::default());
    let trees: Vec<Tree> = (56..=64u64)
        .flat_map(|size| sample_trees(60, size as usize, 20, 17 + size))
        .collect();
    let mut index = ShardedIndex::new(tau, config.window, &ShardConfig::with_shards(4));
    for (i, tree) in (0u32..).zip(&trees) {
        let binary = BinaryTree::from_tree(tree);
        let posts = binary.general_post();
        let subgraphs = partition_tree(&binary, posts, tau, config.partitioning, i);
        index.insert_tree(i, tree.len() as u32, subgraphs.expect("≥ δ nodes"));
    }
    let mut shard_set = Vec::new();
    let spread = |tree: &&Tree| {
        let (lo, hi) = window_of(tree.len() as u32, tau);
        index.shard_set(lo, hi, &mut shard_set);
        shard_set.len() == 4
    };
    let probes: Vec<BinaryTree> = trees
        .iter()
        .filter(spread)
        .take(8)
        .map(BinaryTree::from_tree)
        .collect();
    assert_eq!(probes.len(), 8, "8 probes whose window spans 4 shards");
    let mut caches: Vec<MatchCache> = (0..4).map(|_| MatchCache::new()).collect();
    let (mut candidates, mut layers, mut one_shard) = (Candidates::new(), Vec::new(), Vec::new());
    let mut work = ProbeCounters::default();
    let mut run = |one_walk: bool| -> usize {
        let mut found = 0;
        for probe in &probes {
            let size = probe.len() as u32;
            let (lo, hi) = window_of(size, tau);
            let (posts, matching) = (probe.general_post(), MatchSemantics::Exact);
            candidates.begin(trees.len());
            let sink = &mut candidates.sink();
            if one_walk {
                index.probe_tree(
                    probe,
                    posts,
                    size,
                    lo,
                    hi,
                    matching,
                    &mut caches,
                    &mut shard_set,
                    &mut layers,
                    &mut work,
                    sink,
                );
            } else {
                index.shard_set(lo, hi, &mut shard_set);
                for &s in &shard_set {
                    index.probe_shard(
                        s,
                        probe,
                        posts,
                        size,
                        lo,
                        hi,
                        matching,
                        &mut caches,
                        &mut one_shard,
                        &mut layers,
                        &mut work,
                        sink,
                    );
                }
            }
            found += candidates.as_slice().len();
        }
        found
    };
    let found = run(true);
    assert!(found > probes.len(), "probes find more than themselves");
    assert_eq!(run(false), found);
    group.bench_function("one_walk", |bench| bench.iter(|| black_box(run(true))));
    group.bench_function("per_shard", |bench| bench.iter(|| black_box(run(false))));
    group.finish();
}

/// `retain_trees` over a 1 000-tree index with every 4th / every 2nd tree
/// dead. A sweep consumes its index, so each iteration restores a copy
/// from one dump first; row `0` (nothing dead) is that cost plus a sweep
/// that moves nothing — subtract it to read the other two.
fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("index/sweep");
    let (index, _) = build_index(&sample_trees(1_000, 60, 20, 11), 3, WindowPolicy::Safe);
    let dump = index.dump();
    for (dead_pct, every) in [(0u32, 0u32), (25, 4), (50, 2)] {
        group.bench_with_input(
            BenchmarkId::new("dead_pct", dead_pct),
            &every,
            |bench, &n| {
                bench.iter(|| {
                    let mut index = SubgraphIndex::restore(dump.clone()).expect("own dump");
                    black_box(index.retain_trees(|tree| n == 0 || tree % n != 0))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_insert,
    bench_probe,
    bench_probe_miss,
    bench_probe_tree_sharded,
    bench_sweep
);
criterion_main!(benches);
