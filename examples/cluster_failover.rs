//! Fault-tolerant cluster serving — the full failure arc on one frozen
//! snapshot:
//!
//! 1. **Freeze** a reference catalog (8 shards, τ = 2) and split it
//!    across an in-process [`Cluster`] of 4 nodes at replication 2.
//! 2. **Serve** a probe batch through the scatter/gather router and
//!    cross-check it bit-identical against single-node `Catalog::join`.
//! 3. **Kill one node** mid-workload: every shard keeps a replica, the
//!    router fails over, the result is still bit-identical.
//! 4. **Kill its neighbor too**: the shards they co-owned lose every
//!    copy — the join degrades to a typed coverage report naming exactly
//!    which `(probe, size class)` combinations went unserved. Never a
//!    silent wrong answer.
//! 5. **Recover**: re-replicate the lost shard slots onto the survivors
//!    from the retained snapshot, and full bit-identical service resumes.
//!
//! ```bash
//! cargo run --release --example cluster_failover
//! ```

use tree_similarity_join::prelude::*;

fn main() {
    let config = PartSjConfig::default();
    let tau = 2u32;

    // The reference side, frozen once at the serving ceiling.
    let catalog_trees = swissprot_like(300, 2015);
    let catalog = Catalog::freeze(
        catalog_trees.clone(),
        LabelInterner::new(),
        tau,
        &config,
        &ShardConfig::with_shards(8),
    );

    // The probe side: fresh documents plus lightly edited revisions of
    // catalog entries, so the join has real near-duplicates to find.
    use tree_similarity_join::datagen::random_edit_script;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let mut feed = swissprot_like(40, 7);
    for original in catalog_trees.iter().step_by(9).take(30) {
        let (revision, _) = random_edit_script(original, 1, &mut rng, 64);
        feed.push(revision);
    }

    // The single-node truth every cluster answer is held against.
    let expected = catalog
        .join(&feed, tau, &config, &ShardConfig::default())
        .expect("tau within the frozen ceiling");

    // 1. Split the snapshot across 4 nodes, each shard on 2 of them.
    let mut cluster = Cluster::from_snapshot(catalog.to_bytes(), &ClusterConfig::new(4, 2))
        .expect("well-formed snapshot");
    println!(
        "cluster: {} nodes x replication 2 over {} shards (tau = {})",
        cluster.router().node_count(),
        cluster.router().shard_count(),
        cluster.router().tau()
    );

    // 2. Healthy serve: bit-identical to the single-node catalog join.
    let served = cluster.join(&feed, tau, &config).expect("healthy join");
    assert!(served.is_complete());
    assert_eq!(served.outcome.pairs, expected.pairs);
    assert_eq!(served.outcome.stats.candidates, expected.stats.candidates);
    println!(
        "healthy:   {} pairs from {} candidates over {} shard requests — identical to single-node",
        served.outcome.pairs.len(),
        served.outcome.stats.candidates,
        served.telemetry.requests
    );

    // 3. Kill one node mid-workload: replicas cover, same answer.
    cluster.router_mut().kill_node(1);
    let failed_over = cluster.join(&feed, tau, &config).expect("failover join");
    assert!(failed_over.is_complete());
    assert_eq!(failed_over.outcome.pairs, expected.pairs);
    println!(
        "node 1 down: still {} pairs, still bit-identical (alive: {:?}, lost shards: none)",
        failed_over.outcome.pairs.len(),
        cluster.router().alive_nodes()
    );
    // The telemetry quantifies what the failover cost: every request
    // carries its attempt/retry/backoff tally.
    let t = &failed_over.telemetry;
    println!(
        "           effort: {} attempts for {} requests, {} retries, {} failovers, {} ms backoff",
        t.attempts, t.requests, t.retries, t.failovers, t.backoff_ms
    );
    if let Some(hot) = t.hottest_request() {
        println!(
            "           hottest request: probe {} shard {} took {} attempts ({} ms backoff)",
            hot.probe, hot.shard, hot.attempts, hot.backoff_ms
        );
    }

    // 4. Kill its replica neighbor: the shards they co-owned are gone.
    cluster.router_mut().kill_node(2);
    let lost = cluster.router().lost_shards();
    assert!(!lost.is_empty());
    let degraded = cluster.join(&feed, tau, &config).expect("degraded join");
    let report = degraded.degraded.as_ref().expect("coverage report");
    assert_eq!(report.lost_shards, lost);
    assert!(degraded.outcome.pairs.len() <= expected.pairs.len());
    // Every served pair is a true pair — degradation only ever omits.
    for pair in &degraded.outcome.pairs {
        assert!(expected.pairs.contains(pair));
    }
    println!(
        "node 2 down: shards {:?} unrecoverable -> Degraded {{ {} probes affected, classes {:?} }}",
        report.lost_shards,
        report.affected_probes(),
        report.unserved_classes()
    );
    println!(
        "           {} of {} pairs still proven; the gap is reported, never silent",
        degraded.outcome.pairs.len(),
        expected.pairs.len()
    );
    println!(
        "           effort sunk into the unserved requests: {} attempts, {} retries, {} ms backoff",
        report.attempts, report.retries, report.backoff_ms
    );

    // 5. Recover: re-replicate the dead nodes' shard slots onto the
    //    survivors from the retained snapshot.
    let moved = cluster.recover().expect("recovery from the snapshot");
    assert!(cluster.router().lost_shards().is_empty());
    let healed = cluster.join(&feed, tau, &config).expect("healed join");
    assert!(healed.is_complete());
    assert_eq!(healed.outcome.pairs, expected.pairs);
    assert_eq!(healed.outcome.stats.candidates, expected.stats.candidates);
    println!(
        "recover:   {moved} shard slots re-replicated onto {:?} — bit-identical service resumed",
        cluster.router().alive_nodes()
    );

    // Lifetime per-node accounting across the whole arc, straight from
    // `Router::metrics()` — the substrate a `catalogd` would export.
    println!("per-node lifetime metrics:");
    for node in cluster.router().metrics() {
        println!(
            "  node {} ({}): {} attempts = {} served + {} failed | {} retries, {} failovers, p99 latency {} ms",
            node.node,
            if node.alive { "alive" } else { "down" },
            node.attempts,
            node.served,
            node.failed_attempts,
            node.retries,
            node.failovers,
            node.request_latency_ms.p99()
        );
    }
}
