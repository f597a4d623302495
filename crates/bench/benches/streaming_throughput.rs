//! Streaming-join throughput under heavy insert traffic — the workload
//! the paper's closing note motivates ("tree objects … inserted and
//! updated at a high rate") and the sliding-window eviction PR makes
//! sustainable.
//!
//! Each measurement replays a fixed synthetic feed of `FEED` trees into
//! a fresh join, so `median ns / FEED` is the per-insert cost and
//! `FEED / median s` the inserts/sec figure:
//!
//! * `streaming/insert_sharded/tau{1,3}` — no eviction: the insert-only
//!   baseline (the index grows forever);
//! * `streaming/evict_count/tau{1,3}` — sliding window of
//!   [`WINDOW`] trees: every insert beyond the window also pays one
//!   eviction (tombstone + amortized compaction), so the same quotient
//!   doubles as evictions/sec;
//! * `streaming/evict_time/tau{1,3}` — the logical-timestamp window.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use partsj::PartSjConfig;
use std::hint::black_box;
use tsj_datagen::{synthetic, SyntheticParams};
use tsj_shard::{EvictionPolicy, ShardConfig, ShardedStreamingJoin};
use tsj_tree::Tree;

/// Inserts per measured pass.
const FEED: usize = 300;
/// Live-window size for the eviction benches (≪ FEED, so most inserts
/// evict).
const WINDOW: usize = 64;

fn feed() -> Vec<Tree> {
    synthetic(
        FEED,
        &SyntheticParams {
            avg_size: 30,
            ..Default::default()
        },
        2015,
    )
}

fn run_sharded(trees: &[Tree], tau: u32, policy: EvictionPolicy) -> u64 {
    let mut join = ShardedStreamingJoin::new(
        tau,
        PartSjConfig::default(),
        ShardConfig::with_shards(4),
        policy,
    );
    for tree in trees {
        black_box(join.insert(tree));
    }
    join.pairs_found() + join.evictions()
}

fn bench_streaming_throughput(c: &mut Criterion) {
    let trees = feed();
    let mut group = c.benchmark_group("streaming");
    for tau in [1u32, 3] {
        group.bench_with_input(
            BenchmarkId::new("insert_sharded", tau),
            &tau,
            |bench, &tau| bench.iter(|| run_sharded(&trees, tau, EvictionPolicy::Retain)),
        );
        group.bench_with_input(BenchmarkId::new("evict_count", tau), &tau, |bench, &tau| {
            bench.iter(|| run_sharded(&trees, tau, EvictionPolicy::SlidingCount(WINDOW)))
        });
        group.bench_with_input(BenchmarkId::new("evict_time", tau), &tau, |bench, &tau| {
            // insert() stamps arrival ordinals, so a horizon of WINDOW
            // ticks keeps the same number of trees live as the count
            // window.
            bench.iter(|| run_sharded(&trees, tau, EvictionPolicy::SlidingTime(WINDOW as u64)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_streaming_throughput);
criterion_main!(benches);
