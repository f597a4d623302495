//! What the scatter/gather cluster layer costs over single-node serving.
//!
//! Series (same frozen catalog, same probe batch):
//!
//! * `cluster_serve/single_node/*`   — `Catalog::join` straight off the
//!   loaded snapshot: the bit-identical baseline the router must match;
//! * `cluster_serve/cluster_n{N}_r{R}/*` — the same batch through
//!   `Cluster::join` at N nodes × replication R: planning + fan-out +
//!   gather overhead on top of the identical per-shard work;
//! * `cluster_serve/failover/*`      — N = 4, R = 2 with one node dead:
//!   what a degraded-but-covered cluster pays for routing around the
//!   loss.
//!
//! On the 1-CPU bench container the scatter threads serialize, so the
//! cluster numbers are an overhead ceiling, not a speedup claim —
//! re-record on multi-core for real fan-out.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use partsj::PartSjConfig;
use tsj_catalog::Catalog;
use tsj_cluster::{Cluster, ClusterConfig};
use tsj_datagen::swissprot_like;
use tsj_shard::ShardConfig;
use tsj_tree::LabelInterner;

fn bench_cluster_serve(c: &mut Criterion) {
    let config = PartSjConfig::default();
    let tau = 2u32;
    let shard_cfg = ShardConfig {
        shards: 8,
        probe_threads: 1,
        verify_threads: 1,
        ..Default::default()
    };
    let n = 400usize;
    let left = swissprot_like(n, 2015);
    let probes = swissprot_like(50, 7);
    let catalog = Catalog::freeze(left, LabelInterner::new(), tau, &config, &shard_cfg);
    let bytes = catalog.to_bytes();

    let mut group = c.benchmark_group("cluster_serve");
    group.bench_with_input(BenchmarkId::new("single_node", n), &probes, |b, probes| {
        b.iter(|| {
            catalog
                .join(probes, tau, &config, &shard_cfg)
                .expect("tau within ceiling")
        })
    });
    for &(nodes, replication) in &[(1usize, 1usize), (4, 1), (4, 2)] {
        let mut cluster =
            Cluster::from_snapshot(bytes.clone(), &ClusterConfig::new(nodes, replication))
                .expect("well-formed snapshot");
        group.bench_with_input(
            BenchmarkId::new(format!("cluster_n{nodes}_r{replication}"), n),
            &probes,
            |b, probes| {
                b.iter(|| {
                    let served = cluster.join(probes, tau, &config).expect("healthy join");
                    assert!(served.is_complete());
                    served
                })
            },
        );
    }
    let mut degraded =
        Cluster::from_snapshot(bytes, &ClusterConfig::new(4, 2)).expect("well-formed snapshot");
    degraded.router_mut().kill_node(0);
    group.bench_with_input(BenchmarkId::new("failover", n), &probes, |b, probes| {
        b.iter(|| {
            let served = degraded.join(probes, tau, &config).expect("failover join");
            assert!(served.is_complete());
            served
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cluster_serve);
criterion_main!(benches);
