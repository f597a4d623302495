//! The cluster's correctness contract: with zero faults, a scatter/gather
//! [`Cluster::join`] is **bit-identical** to single-node `Catalog::join` —
//! same pairs, same candidate counts, same filter-stage counters — across
//! every (nodes × replication × shards × τ) combination; with replication,
//! losing a node changes nothing; without it, the join degrades to a typed
//! coverage report whose served pairs are exactly the surviving shards'
//! contribution.

mod common;

use common::{freeze, reference};
use partsj::{PartSjConfig, VerifyEngine};
use tsj_catalog::SnapshotReader;
use tsj_cluster::{
    plan_requests, Cluster, ClusterConfig, ClusterError, FaultPlan, Node, NodeScratch, ProbeCtx,
    Topology,
};
use tsj_datagen::synthetic_sized;
use tsj_shard::FrozenJoinScratch;
use tsj_ted::{JoinOutcome, JoinStats};

/// Bit-identity, durations excluded (`JoinStats`'s derived equality
/// would compare wall times).
fn assert_identical(served: &tsj_cluster::ClusterJoin, reference: &JoinOutcome, label: &str) {
    assert!(
        served.is_complete(),
        "{label}: unexpectedly degraded: {:?}",
        served.degraded
    );
    assert_eq!(served.outcome.pairs, reference.pairs, "{label}: pairs");
    assert_eq!(
        served.outcome.stats.work(),
        reference.stats.work(),
        "{label}"
    );
}

/// The issue's headline property: zero faults → bit-identical to the
/// single-node catalog join, over nodes {1, 2, 4} × replication {1, 2} ×
/// shards {1, 2, 4, 8} × τ {0, 1, 3}.
#[test]
fn zero_fault_cluster_join_is_bit_identical_to_catalog_join() {
    let left = synthetic_sized(48, 20, 311);
    // Random probes plus exact copies of catalog trees, so every τ in the
    // sweep produces real result pairs.
    let mut right = synthetic_sized(32, 20, 412);
    right.extend(left.iter().step_by(6).cloned());
    for tau in [0u32, 1, 3] {
        for shards in [1usize, 2, 4, 8] {
            let catalog = freeze(&left, tau, shards);
            let expected = reference(&catalog, &right, tau);
            assert!(!expected.pairs.is_empty(), "sweep must exercise real joins");
            let bytes = catalog.to_bytes();
            for nodes in [1usize, 2, 4] {
                for replication in [1usize, 2] {
                    let label = format!(
                        "tau {tau}, shards {shards}, nodes {nodes}, replication {replication}"
                    );
                    let mut cluster = Cluster::from_snapshot(
                        bytes.clone(),
                        &ClusterConfig::new(nodes, replication),
                    )
                    .unwrap_or_else(|e| panic!("{label}: snapshot assembly failed: {e}"));
                    let served = cluster
                        .join(&right, tau, &PartSjConfig::default())
                        .unwrap_or_else(|e| panic!("{label}: join errored: {e}"));
                    assert_identical(&served, &expected, &label);
                    // Every planned request was answered, none retried.
                    assert_eq!(
                        served.telemetry.served, served.telemetry.requests,
                        "{label}"
                    );
                    assert_eq!(served.telemetry.faults, 0, "{label}");
                }
            }
        }
    }
}

/// A node *is* a frozen side: the union of `Node::serve` over the
/// planned requests, each served by its shard's owner, equals the frozen
/// side's own sequential join of the same probes — pairs and work
/// counters — over nodes {1, 2, 3} at R = 1 × shards {1, 3, 8} × τ
/// {0, 1, 2}. Each node holds verification inputs for exactly the trees
/// of the size classes its shards own, and refuses, typed, a request
/// naming a class of another shard.
#[test]
fn node_serve_union_equals_the_frozen_sides_sequential_join() {
    let left = synthetic_sized(48, 20, 311);
    let mut right = synthetic_sized(32, 20, 412);
    right.extend(left.iter().step_by(6).cloned());
    let config = PartSjConfig::default();
    for tau in [0u32, 1, 2] {
        for shards in [1usize, 3, 8] {
            let catalog = freeze(&left, tau, shards);
            let mut pairs = Vec::new();
            let stats = catalog.frozen().join_seq(
                &right,
                tau,
                &config,
                &mut VerifyEngine::new(tau, &config),
                &mut FrozenJoinScratch::new(),
                &mut pairs,
            );
            assert!(
                !pairs.is_empty(),
                "tau {tau}: sweep must exercise real joins"
            );

            let reader = SnapshotReader::from_bytes(catalog.to_bytes()).unwrap();
            let map = catalog.index().shard_map();
            let requests = plan_requests(&right, tau, map, shards);
            let ctxs = ProbeCtx::batch(&right, &config);
            for nodes in [1usize, 2, 3] {
                let label = format!("tau {tau}, shards {shards}, nodes {nodes}");
                let topology = Topology::new(shards, nodes, 1).unwrap();
                let cluster: Vec<Node> = (0..nodes)
                    .map(|n| Node::restore(n, &reader, &topology.shards_of(n)).unwrap())
                    .collect();
                for node in &cluster {
                    let owned = topology.shards_of(node.id());
                    for (i, tree) in (0..).zip(&left) {
                        let shard = map.shard_of(tree.len() as u32, shards) as u32;
                        let held = node.frozen().holds(i);
                        assert_eq!(held, owned.contains(&shard), "{label}: tree {i}");
                    }
                }

                let mut scratch = NodeScratch::default();
                let mut union = Vec::new();
                let mut total = JoinStats::default();
                for req in &requests {
                    let owner = &cluster[topology.replicas(req.shard)[0]];
                    let ctx = &ctxs[req.probe as usize];
                    let resp = owner.serve(req, ctx, tau, &config, &mut scratch).unwrap();
                    union.extend(resp.matches.iter().map(|&i| (i, resp.probe)));
                    total.merge_partial(&resp.stats);
                }
                let served = JoinOutcome::new_bipartite(union, total);
                assert_eq!(served.pairs, pairs, "{label}: pairs");
                assert_eq!(served.stats.work(), stats.work(), "{label}");

                if shards == 1 {
                    continue;
                }
                let mut foreign = requests[0].clone();
                let shard = foreign.shard as usize;
                let class = (1..).find(|&c| map.shard_of(c, shards) != shard).unwrap();
                foreign.classes.push(class);
                let owner = &cluster[topology.replicas(foreign.shard)[0]];
                let ctx = &ctxs[foreign.probe as usize];
                let refused = owner.serve(&foreign, ctx, tau, &config, &mut scratch);
                assert!(
                    matches!(refused, Err(ClusterError::ClassNotOwned { class: c, .. }) if c == class),
                    "{label}: {refused:?}"
                );
            }
        }
    }
}

/// With R = 2, losing any single node — before the join or between joins —
/// still yields the bit-identical result: every shard keeps a live
/// replica, the router fails over, nothing degrades.
#[test]
fn single_node_loss_with_replication_two_is_bit_identical() {
    let left = synthetic_sized(48, 20, 311);
    let mut right = synthetic_sized(24, 20, 413);
    right.extend(left.iter().step_by(5).cloned());
    let tau = 1;
    let catalog = freeze(&left, tau, 4);
    let expected = reference(&catalog, &right, tau);
    let bytes = catalog.to_bytes();
    for dead in 0..4usize {
        // Killed mid-workload: a healthy join first, then the loss.
        let mut cluster = Cluster::from_snapshot(bytes.clone(), &ClusterConfig::new(4, 2)).unwrap();
        let before = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();
        assert_identical(&before, &expected, &format!("healthy, pre-kill {dead}"));
        cluster.router_mut().kill_node(dead);
        assert!(
            cluster.router().lost_shards().is_empty(),
            "R = 2 survives one loss"
        );
        let after = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();
        assert_identical(&after, &expected, &format!("node {dead} killed"));

        // Down from the start (static fault plan): same story.
        let mut cfg = ClusterConfig::new(4, 2);
        cfg.faults = FaultPlan {
            down_nodes: vec![dead],
            ..FaultPlan::none()
        };
        let mut cluster = Cluster::from_snapshot(bytes.clone(), &cfg).unwrap();
        let served = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();
        assert_identical(&served, &expected, &format!("node {dead} down at start"));
    }
}

/// With R = 1, losing a node is unrecoverable: the join must return
/// exactly the surviving shards' pairs plus a [`Degraded`] report naming
/// precisely the lost shard and the `(probe, size class)` combinations it
/// owned — never a silent partial answer.
#[test]
fn unrecoverable_loss_degrades_to_exactly_the_surviving_shards() {
    let left = synthetic_sized(48, 20, 311);
    let mut right = synthetic_sized(24, 20, 413);
    right.extend(left.iter().step_by(5).cloned());
    let tau = 1;
    let shards = 4usize;
    let catalog = freeze(&left, tau, shards);
    let expected = reference(&catalog, &right, tau);
    let owner = |size: u32| catalog.index().shard_of_size(size) as u32;
    let bytes = catalog.to_bytes();
    for dead in 0..4usize {
        // R = 1 over 4 nodes and 4 shards: shard s lives only on node s.
        let mut cluster = Cluster::from_snapshot(bytes.clone(), &ClusterConfig::new(4, 1)).unwrap();
        cluster.router_mut().kill_node(dead);
        let lost = dead as u32;
        assert_eq!(cluster.router().lost_shards(), vec![lost]);

        let served = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();
        let degraded = served.degraded.as_ref().expect("loss must be reported");
        assert_eq!(degraded.lost_shards, vec![lost]);

        // Unserved coverage: per probe, exactly its window classes owned
        // by the lost shard, sorted and deduplicated.
        let mut unserved: Vec<(u32, u32)> = Vec::new();
        for (j, tree) in right.iter().enumerate() {
            let (lo, hi) = partsj::window_of(tree.len() as u32, tau);
            for class in lo..=hi {
                if owner(class) == lost {
                    unserved.push((j as u32, class));
                }
            }
        }
        unserved.sort_unstable();
        unserved.dedup();
        assert_eq!(degraded.unserved, unserved, "node {dead}: coverage report");
        assert!(!unserved.is_empty(), "sweep must exercise real losses");

        // Served pairs: exactly the reference pairs whose left tree's
        // size class survived — nothing extra, nothing silently dropped.
        let surviving: Vec<(u32, u32)> = expected
            .pairs
            .iter()
            .copied()
            .filter(|&(i, _)| owner(left[i as usize].len() as u32) != lost)
            .collect();
        assert_eq!(served.outcome.pairs, surviving, "node {dead}: served pairs");
    }
}

/// After an unrecoverable loss, [`Cluster::recover`] re-replicates the
/// dead node's shard slots from the retained snapshot onto survivors and
/// full bit-identical service resumes.
#[test]
fn recover_reassigns_lost_shards_and_restores_identical_service() {
    let left = synthetic_sized(48, 20, 311);
    let mut right = synthetic_sized(24, 20, 413);
    right.extend(left.iter().step_by(5).cloned());
    let tau = 1;
    let catalog = freeze(&left, tau, 8);
    let expected = reference(&catalog, &right, tau);
    let mut cluster =
        Cluster::from_snapshot(catalog.to_bytes(), &ClusterConfig::new(4, 2)).unwrap();

    // Two adjacent losses defeat R = 2 for the shards they co-own.
    cluster.router_mut().kill_node(0);
    cluster.router_mut().kill_node(1);
    assert!(!cluster.router().lost_shards().is_empty());
    let degraded = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();
    assert!(!degraded.is_complete());

    let moved = cluster.recover().unwrap();
    assert!(moved > 0, "recovery must move shard slots");
    assert!(cluster.router().lost_shards().is_empty());
    let healed = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();
    assert_identical(&healed, &expected, "after recover()");
}

/// A query threshold above the frozen one is a typed error, not a wrong
/// (under-filtered) answer.
#[test]
fn tau_above_frozen_is_a_typed_error() {
    let left = synthetic_sized(12, 14, 311);
    let catalog = freeze(&left, 1, 2);
    let mut cluster =
        Cluster::from_snapshot(catalog.to_bytes(), &ClusterConfig::new(2, 1)).unwrap();
    match cluster.join(&left, 3, &PartSjConfig::default()) {
        Err(ClusterError::TauExceedsFrozen {
            query: 3,
            frozen: 1,
        }) => {}
        other => panic!("expected TauExceedsFrozen, got {other:?}"),
    }
}
