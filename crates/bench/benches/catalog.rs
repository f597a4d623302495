//! Catalog life-cycle costs: what freezing buys a serving workload.
//!
//! Series:
//!
//! * `catalog/freeze/*`        — partition + shard-index a collection
//!   (the one-time cost a snapshot amortizes away);
//! * `catalog/save/*`          — serialize the frozen catalog to bytes;
//! * `catalog/load/*`          — parse + validate + reassemble from
//!   bytes (what a serving process pays at startup instead of a
//!   freeze);
//! * `catalog/serve/*`         — one probe batch against a loaded
//!   catalog (the steady-state cost per request);
//! * `catalog/rebuild_serve/*` — the same batch via `sharded_rs_join`,
//!   i.e. rebuilding the index for every request — the baseline the
//!   catalog exists to beat. `serve / rebuild_serve` is the per-request
//!   speedup of freezing once;
//! * `format/checksum/*`       — the snapshot and wire checksum over a
//!   buffer of a `serve_tcp` snapshot's length (4 725 096 bytes) and of
//!   its probe-batch frame's (9 904 bytes), with throughput in bytes.
//!   Report-only.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use partsj::PartSjConfig;
use tsj_catalog::format::checksum;
use tsj_catalog::Catalog;
use tsj_datagen::swissprot_like;
use tsj_shard::{sharded_rs_join, ShardConfig};
use tsj_tree::LabelInterner;

fn bench_catalog(c: &mut Criterion) {
    let config = PartSjConfig::default();
    let tau = 3u32;
    // Single-threaded pools: the 1-CPU bench container measures the
    // inline path; re-record on multi-core for fan-out numbers.
    let shard_cfg = ShardConfig {
        shards: 4,
        probe_threads: 1,
        verify_threads: 1,
        ..Default::default()
    };
    let mut group = c.benchmark_group("catalog");
    for &n in &[200usize, 400] {
        let left = swissprot_like(n, 2015);
        let probes = swissprot_like(50, 7);
        let catalog = Catalog::freeze(left.clone(), LabelInterner::new(), tau, &config, &shard_cfg);
        let bytes = catalog.to_bytes();

        group.bench_with_input(BenchmarkId::new("freeze", n), &left, |b, left| {
            b.iter(|| Catalog::freeze(left.clone(), LabelInterner::new(), tau, &config, &shard_cfg))
        });
        group.bench_with_input(BenchmarkId::new("save", n), &catalog, |b, catalog| {
            b.iter(|| catalog.to_bytes())
        });
        group.bench_with_input(BenchmarkId::new("load", n), &bytes, |b, bytes| {
            b.iter(|| Catalog::from_bytes(bytes.clone()).expect("valid snapshot"))
        });
        group.bench_with_input(BenchmarkId::new("serve", n), &probes, |b, probes| {
            b.iter(|| {
                catalog
                    .join(probes, tau, &config, &shard_cfg)
                    .expect("tau within ceiling")
            })
        });
        group.bench_with_input(
            BenchmarkId::new("rebuild_serve", n),
            &probes,
            |b, probes| b.iter(|| sharded_rs_join(&left, probes, tau, &config, &shard_cfg)),
        );
    }
    group.finish();
}

fn bench_checksum(c: &mut Criterion) {
    let mut group = c.benchmark_group("format");
    for len in [4_725_096usize, 9_904] {
        // Deterministic, incompressible-looking bytes.
        let bytes: Vec<u8> = (0..len as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::new("checksum", len), &bytes, |b, bytes| {
            b.iter(|| checksum(black_box(bytes)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_catalog, bench_checksum);
criterion_main!(benches);
