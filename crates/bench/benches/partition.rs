//! Micro-benchmarks of the δ-partitioning pipeline (§3.3): the
//! `(δ,γ)`-partitionable greedy test, the max-min binary search, cut
//! selection and subgraph construction. These costs are paid once per
//! indexed tree in Algorithm 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use partsj::{
    build_subgraphs, max_min_size, partition_tree_with, partitionable, select_cuts,
    select_random_cuts, Partition, PartitionScheme, PartitionScratch, ProbeScratch, VerifyData,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tsj_datagen::{grow_tree, swissprot_like, ShapeProfile};
use tsj_tree::{BinaryTree, Tree};

fn sample_tree(seed: u64, size: usize) -> Tree {
    let profile = ShapeProfile {
        max_fanout: 4,
        max_depth: 16,
        deepen_prob: 0.35,
    };
    grow_tree(&mut StdRng::seed_from_u64(seed), size, 20, &profile)
}

fn bench_partitionable(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition/partitionable");
    for size in [40usize, 80, 200] {
        let tree = sample_tree(1, size);
        let binary = BinaryTree::from_tree(&tree);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |bench, _| {
            bench.iter(|| black_box(partitionable(black_box(&binary), 7, 5)))
        });
    }
    group.finish();
}

fn bench_max_min_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition/max_min_size");
    for tau in [1u32, 3, 5] {
        let delta = 2 * tau as usize + 1;
        let tree = sample_tree(2, 80);
        let binary = BinaryTree::from_tree(&tree);
        group.bench_with_input(BenchmarkId::new("tau", tau), &tau, |bench, _| {
            bench.iter(|| black_box(max_min_size(black_box(&binary), delta)))
        });
    }
    group.finish();
}

fn bench_full_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition/pipeline");
    let tree = sample_tree(3, 80);
    let binary = BinaryTree::from_tree(&tree);
    let posts = tree.postorder_numbers();
    let delta = 7;
    group.bench_function("maxmin_cuts_and_build", |bench| {
        bench.iter(|| {
            let gamma = max_min_size(&binary, delta);
            let cuts = select_cuts(&binary, delta, gamma);
            black_box(build_subgraphs(&binary, &posts, &cuts, 0))
        })
    });
    // The join loops' form of the first row (δ = 7 is τ = 3): every
    // temporary and the partition itself come out of one warm scratch.
    let mut scratch = PartitionScratch::new();
    group.bench_function("maxmin_warm_scratch", |bench| {
        bench.iter(|| {
            let scheme = PartitionScheme::MaxMin;
            let partition = partition_tree_with(&binary, &posts, 3, scheme, 0, &mut scratch);
            black_box(partition.map(Partition::len))
        })
    });
    group.bench_function("random_cuts_and_build", |bench| {
        bench.iter(|| {
            let cuts = select_random_cuts(&binary, delta, 42);
            black_box(build_subgraphs(&binary, &posts, &cuts, 0))
        })
    });
    // Both preparations of a `join_flat`-shaped collection: every tree's
    // LC-RS view, as the join's probe step builds it, and every tree's
    // verification inputs, as the join builds them up front.
    let trees = swissprot_like(600, 2015);
    let mut probe = ProbeScratch::new();
    group.bench_function("prepare_swissprot600", |bench| {
        bench.iter(|| {
            let nodes: usize = trees.iter().map(|t| probe.prepare(t).0.len()).sum();
            black_box((nodes, VerifyData::batch(&trees)))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_partitionable,
    bench_max_min_size,
    bench_full_pipeline
);
criterion_main!(benches);
