//! Adaptive-execution benchmarks: what the self-tuning layer buys.
//!
//! * `adaptive/chain/{fixed,adaptive}/{tau}` — end-to-end join on a
//!   workload engineered so the default chain order is wrong: every tree
//!   carries the *same label multiset* (the histogram lower bound is
//!   always 0 and never kills) but divergent structure (the traversal
//!   bound kills nearly everything). The fixed chain pays the O(n)
//!   histogram merge on every candidate before the stage that actually
//!   decides; the adaptive engine observes the kill rates and promotes
//!   the traversal bound.
//! * `adaptive/shard_build/{hash,balanced}/{shards}` — sharded self-join
//!   on a size-skewed collection where a few container-size classes hold
//!   most of the posting mass: the hash map routes by size alone and can
//!   pile the heavy classes onto one shard, the balanced map bin-packs
//!   them by observed mass.
//!
//! Info lines before the timings report (a) per-stage kill counters and
//! exact-TED calls for the fixed vs adaptive chain — decisions are
//! bit-identical, so `ted_calls` match and only where the kills land
//! (and how much filter work precedes them) changes — and (b) per-shard
//! posting loads under both maps with their max/mean imbalance ratio.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use partsj::{partsj_join_with, AdaptiveConfig, PartSjConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use tsj_bench::stage_count;
use tsj_datagen::{grow_tree, ShapeProfile};
use tsj_shard::{balanced_map_for, build_subgraph_lists, sharded_join, ShardConfig, ShardedIndex};
use tsj_tree::{parse_bracket, BinaryTree, LabelInterner, Tree};

/// Chain workload: label-permutation chains. Identical multisets keep
/// the histogram bound at 0 forever; the divergent vertical orders make
/// the traversal bound the decisive stage.
fn permutation_chains(n: usize, depth: usize, seed: u64) -> Vec<Tree> {
    let mut labels = LabelInterner::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let names: Vec<String> = (0..depth).map(|i| format!("l{i}")).collect();
    (0..n)
        .map(|_| {
            let mut order = names.clone();
            order.shuffle(&mut rng);
            let mut s = String::new();
            for name in &order {
                s.push('{');
                s.push_str(name);
            }
            s.push_str(&"}".repeat(order.len()));
            parse_bracket(&s, &mut labels).unwrap()
        })
        .collect()
}

/// Shard workload: a few heavy container-size classes (many trees of
/// nearly the same size) over a thin uniform background.
fn skewed_sizes(seed: u64) -> Vec<Tree> {
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = ShapeProfile {
        max_fanout: 4,
        max_depth: 14,
        deepen_prob: 0.4,
    };
    let mut trees = Vec::new();
    for heavy in [40usize, 41, 42, 43] {
        for _ in 0..60 {
            trees.push(grow_tree(&mut rng, heavy, 12, &profile));
        }
    }
    for _ in 0..80 {
        let size = rng.gen_range(10usize..90);
        trees.push(grow_tree(&mut rng, size, 12, &profile));
    }
    trees
}

fn adaptive_config() -> PartSjConfig {
    PartSjConfig {
        adaptive: AdaptiveConfig::FULL,
        ..Default::default()
    }
}

fn chain_workload_configs() -> [(&'static str, PartSjConfig); 2] {
    [
        ("fixed", PartSjConfig::default()),
        ("adaptive", adaptive_config()),
    ]
}

fn report_chain_counters(trees: &[Tree]) {
    for tau in [1u32, 2] {
        for (name, config) in chain_workload_configs() {
            let outcome = partsj_join_with(trees, tau, &config);
            let stats = &outcome.stats;
            println!(
                "adaptive: tau={tau} chain={name} candidates={} ted_calls={} size={} \
                 shape-accept={} label-hist={} traversal-sed={}",
                stats.candidates,
                stats.ted_calls,
                stage_count(stats, "size"),
                stage_count(stats, "shape-accept"),
                stage_count(stats, "label-hist"),
                stage_count(stats, "traversal-sed"),
            );
        }
    }
}

/// Builds the sharded index under both maps and reports the per-shard
/// posting loads with their max/mean imbalance.
fn report_shard_loads(trees: &[Tree], shards: usize) {
    let tau = 2u32;
    let config = PartSjConfig::default();
    let binaries: Vec<BinaryTree> = trees.iter().map(BinaryTree::from_tree).collect();
    let posts: Vec<Vec<u32>> = trees.iter().map(Tree::postorder_numbers).collect();
    let lists = build_subgraph_lists(trees, &binaries, &posts, tau, &config, 1);
    let items: Vec<_> = lists
        .into_iter()
        .enumerate()
        .filter_map(|(i, sg)| sg.map(|sg| (i as u32, trees[i].len() as u32, sg)))
        .collect();
    for balanced in [false, true] {
        let shard_cfg = ShardConfig::with_shards(shards);
        let mut index = ShardedIndex::new(tau, config.window, &shard_cfg).without_replay();
        if balanced {
            index
                .set_shard_map(balanced_map_for(&items, shards))
                .expect("empty index accepts a validated map");
        }
        index.insert_all(items.clone(), false);
        let loads = index.shard_posting_loads();
        let max = loads.iter().copied().max().unwrap_or(0);
        let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
        println!(
            "adaptive: shards={shards} map={} loads={loads:?} max={max} mean={mean:.1} \
             max_over_mean={:.3}",
            if balanced { "balanced" } else { "hash" },
            max as f64 / mean.max(1.0),
        );
    }
}

fn bench_chain(c: &mut Criterion) {
    let trees = permutation_chains(140, 12, 2015);
    let mut group = c.benchmark_group("adaptive/chain");
    for tau in [1u32, 2] {
        for (name, config) in chain_workload_configs() {
            group.bench_with_input(BenchmarkId::new(name, tau), &tau, |bench, &tau| {
                bench.iter(|| black_box(partsj_join_with(&trees, tau, &config)))
            });
        }
    }
    group.finish();
}

fn bench_shard_build(c: &mut Criterion) {
    let trees = skewed_sizes(2015);
    let mut group = c.benchmark_group("adaptive/shard_build");
    for shards in [4usize, 8] {
        for (name, config) in [
            ("hash", PartSjConfig::default()),
            ("balanced", adaptive_config()),
        ] {
            group.bench_with_input(BenchmarkId::new(name, shards), &shards, |bench, &shards| {
                let shard_cfg = ShardConfig {
                    shards,
                    probe_threads: 1,
                    verify_threads: 1,
                    ..Default::default()
                };
                bench.iter(|| black_box(sharded_join(&trees, 2, &config, &shard_cfg)))
            });
        }
    }
    group.finish();
}

fn bench_all(c: &mut Criterion) {
    let chains = permutation_chains(140, 12, 2015);
    report_chain_counters(&chains);
    let skewed = skewed_sizes(2015);
    report_shard_loads(&skewed, 4);
    report_shard_loads(&skewed, 8);
    bench_chain(c);
    bench_shard_build(c);
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
