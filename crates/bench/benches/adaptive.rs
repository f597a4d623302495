//! Balanced-shard-map benchmark (the group keeps its historical
//! `adaptive/` prefix so `BENCH_*.json` rows still line up).
//!
//! `adaptive/shard_build/{hash,balanced}/{shards}` — `Frozen::build` of
//! a size-skewed collection where a few container-size classes hold
//! most of the posting mass: the hash map routes by size alone and can
//! pile the heavy classes onto one shard, the balanced map
//! (`ShardConfig::balanced_shards`) bin-packs them by observed mass.
//! The build runs on two threads, so shards ingest in parallel and the
//! busiest shard bounds that phase; partitioning and verification prep
//! are in the time too, and cost the same under either map.
//!
//! Info lines before the timings report per-shard posting loads under
//! both maps with their max/mean imbalance ratio.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use partsj::PartSjConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use tsj_datagen::{grow_tree, ShapeProfile};
use tsj_shard::{build_subgraph_lists, Frozen, ShardConfig, ShardedIndex};
use tsj_tree::Tree;

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

/// Builds the sharded index under both maps and reports the per-shard
/// posting loads with their max/mean imbalance.
fn report_shard_loads(trees: &[Tree], shards: usize) {
    let tau = 2u32;
    let config = PartSjConfig::default();
    let lists = build_subgraph_lists(trees, tau, &config, 1);
    let items: Vec<_> = lists
        .into_iter()
        .enumerate()
        .filter_map(|(i, sg)| sg.map(|sg| (i as u32, trees[i].len() as u32, sg)))
        .collect();
    for balanced in [false, true] {
        let shard_cfg = ShardConfig {
            shards,
            balanced_shards: balanced,
            ..Default::default()
        };
        let index =
            ShardedIndex::build_static(tau, config.window, &shard_cfg, items.clone(), false);
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

fn bench_shard_build(c: &mut Criterion) {
    let trees = skewed_sizes(2015);
    let mut group = c.benchmark_group("adaptive/shard_build");
    for shards in [4usize, 8] {
        for (name, balanced_shards) in [("hash", false), ("balanced", true)] {
            group.bench_with_input(BenchmarkId::new(name, shards), &shards, |bench, &shards| {
                // Two threads: the shards ingest their postings in
                // parallel, so a heavier busiest shard shows in the time.
                let shard_cfg = ShardConfig {
                    shards,
                    probe_threads: 2,
                    balanced_shards,
                    ..Default::default()
                };
                let config = PartSjConfig::default();
                bench.iter(|| black_box(Frozen::build(&trees, 2, &config, &shard_cfg)))
            });
        }
    }
    group.finish();
}

fn bench_all(c: &mut Criterion) {
    let skewed = skewed_sizes(2015);
    report_shard_loads(&skewed, 4);
    report_shard_loads(&skewed, 8);
    bench_shard_build(c);
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
