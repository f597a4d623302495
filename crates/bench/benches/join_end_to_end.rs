//! End-to-end join benchmarks at reduced scale — one group per figure
//! family of the paper's evaluation:
//!
//! * `join/tau/*` — the τ sweep of Figure 10;
//! * `join/cardinality/*` — the scalability sweep of Figure 12;
//! * `join/dataset/*` — one fixed setting per dataset (Figures 10a–d);
//! * `join/ablation/*` — partitioning-scheme and window ablations.
//!
//! Criterion wants sub-second iterations, so cardinalities here are far
//! below the harness defaults; the `experiments` binary regenerates the
//! full tables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use partsj::{partsj_join_with, PartSjConfig, PartitionScheme, WindowPolicy};
use std::hint::black_box;
use tsj_baselines::{set_join, str_join};
use tsj_datagen::{synthetic, SyntheticParams};
use tsj_tree::Tree;

fn dataset(n: usize) -> Vec<Tree> {
    synthetic(n, &SyntheticParams::default(), 2015)
}

fn bench_tau_sweep(c: &mut Criterion) {
    let trees = dataset(150);
    let mut group = c.benchmark_group("join/tau");
    for tau in [1u32, 3, 5] {
        group.bench_with_input(BenchmarkId::new("PRT", tau), &tau, |bench, &tau| {
            bench.iter(|| black_box(partsj_join_with(&trees, tau, &PartSjConfig::default())))
        });
        group.bench_with_input(BenchmarkId::new("STR", tau), &tau, |bench, &tau| {
            bench.iter(|| black_box(str_join(&trees, tau)))
        });
        group.bench_with_input(BenchmarkId::new("SET", tau), &tau, |bench, &tau| {
            bench.iter(|| black_box(set_join(&trees, tau)))
        });
    }
    group.finish();
}

fn bench_cardinality(c: &mut Criterion) {
    let trees = dataset(400);
    let mut group = c.benchmark_group("join/cardinality");
    group.sample_size(10);
    for n in [100usize, 200, 400] {
        let slice = &trees[..n];
        group.bench_with_input(BenchmarkId::new("PRT", n), &n, |bench, _| {
            bench.iter(|| black_box(partsj_join_with(slice, 3, &PartSjConfig::default())))
        });
        group.bench_with_input(BenchmarkId::new("STR", n), &n, |bench, _| {
            bench.iter(|| black_box(str_join(slice, 3)))
        });
        group.bench_with_input(BenchmarkId::new("SET", n), &n, |bench, _| {
            bench.iter(|| black_box(set_join(slice, 3)))
        });
    }
    group.finish();
}

fn bench_ablations(c: &mut Criterion) {
    let trees = dataset(200);
    let mut group = c.benchmark_group("join/ablation");
    for (name, config) in [
        ("maxmin_safe", PartSjConfig::default()),
        (
            "random_safe",
            PartSjConfig {
                partitioning: PartitionScheme::Random { seed: 7 },
                ..Default::default()
            },
        ),
        (
            "maxmin_tight",
            PartSjConfig {
                window: WindowPolicy::Tight,
                ..Default::default()
            },
        ),
        (
            "maxmin_paper",
            PartSjConfig {
                window: WindowPolicy::PaperAbsolute,
                ..Default::default()
            },
        ),
    ] {
        group.bench_function(name, |bench| {
            bench.iter(|| black_box(partsj_join_with(&trees, 3, &config)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tau_sweep, bench_cardinality, bench_ablations);
criterion_main!(benches);
