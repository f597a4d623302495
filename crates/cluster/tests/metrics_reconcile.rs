//! Per-node metrics reconcile *exactly* with the join-level telemetry and
//! the typed `Complete`/`Degraded` outcomes, under pinned-seed fault
//! plans on a [`VirtualClock`]. Every router increment has a per-node
//! twin recorded under identical conditions, so these are equalities,
//! not bounds.

mod common;

use common::{env_fault_seed, freeze};
use partsj::PartSjConfig;
use std::sync::Arc;
use tsj_cluster::{
    Cluster, ClusterConfig, ClusterJoin, FaultPlan, NodeMetricsSnapshot, VirtualClock,
};
use tsj_datagen::synthetic_sized;

/// Every reconciliation invariant between `Router::metrics()`, the
/// join telemetry, the per-request rows and the degradation report.
/// Panics name the fault seed so a failure is replayable.
fn check_reconciled(seed: u64, served: &ClusterJoin, nodes: &[NodeMetricsSnapshot]) {
    let ctx = format!("TSJ_FAULT_SEED={seed:#x}");
    let telemetry = &served.telemetry;
    for node in nodes {
        assert_eq!(
            node.attempts,
            node.served + node.failed_attempts,
            "{ctx}: node {} attempts split",
            node.node
        );
        assert_eq!(
            node.request_latency_ms.count(),
            node.served,
            "{ctx}: node {} latency histogram counts served requests",
            node.node
        );
    }
    let sum = |f: fn(&NodeMetricsSnapshot) -> u64| nodes.iter().map(f).sum::<u64>();
    assert_eq!(sum(|n| n.attempts), telemetry.attempts, "{ctx}: attempts");
    assert_eq!(sum(|n| n.served), telemetry.served, "{ctx}: served");
    assert_eq!(
        sum(|n| n.failed_attempts) + sum(|n| n.delays_absorbed),
        telemetry.faults,
        "{ctx}: faults = failed attempts + absorbed delays"
    );
    assert_eq!(sum(|n| n.retries), telemetry.retries, "{ctx}: retries");
    assert_eq!(
        sum(|n| n.failovers),
        telemetry.failovers,
        "{ctx}: failovers"
    );
    assert_eq!(
        sum(|n| n.backoff_ms),
        telemetry.backoff_ms,
        "{ctx}: backoff_ms"
    );
    assert_eq!(sum(|n| n.delay_ms), telemetry.delay_ms, "{ctx}: delay_ms");

    // The per-request rows tell the same story a third way.
    let rows = &telemetry.per_request;
    assert_eq!(rows.len() as u64, telemetry.requests, "{ctx}: one row each");
    assert_eq!(
        rows.iter().map(|r| u64::from(r.attempts)).sum::<u64>(),
        telemetry.attempts,
        "{ctx}: row attempts"
    );
    assert_eq!(
        rows.iter().filter(|r| r.served).count() as u64,
        telemetry.served,
        "{ctx}: row served"
    );
    assert_eq!(
        rows.iter().map(|r| r.backoff_ms).sum::<u64>(),
        telemetry.backoff_ms,
        "{ctx}: row backoff"
    );
    // Served rows' spent time is exactly what the latency histograms saw.
    assert_eq!(
        rows.iter()
            .filter(|r| r.served)
            .map(|r| r.spent_ms)
            .sum::<u64>(),
        nodes.iter().map(|n| n.request_latency_ms.sum).sum::<u64>(),
        "{ctx}: latency sum"
    );

    // Degraded effort = the unserved rows' effort, exactly.
    match &served.degraded {
        None => assert!(
            rows.iter().all(|r| r.served),
            "{ctx}: complete join has no unserved rows"
        ),
        Some(d) => {
            assert_eq!(
                d.attempts,
                telemetry
                    .unserved_requests()
                    .map(|r| u64::from(r.attempts))
                    .sum::<u64>(),
                "{ctx}: degraded attempts"
            );
            assert_eq!(
                d.retries,
                telemetry
                    .unserved_requests()
                    .map(|r| u64::from(r.retries))
                    .sum::<u64>(),
                "{ctx}: degraded retries"
            );
            assert_eq!(
                d.backoff_ms,
                telemetry
                    .unserved_requests()
                    .map(|r| r.backoff_ms)
                    .sum::<u64>(),
                "{ctx}: degraded backoff"
            );
        }
    }
}

/// A mixed storm — delays, timeouts, transients and node deaths — across
/// several seeds (or the one `TSJ_FAULT_SEED` pins): per-node sums always
/// equal the telemetry totals.
#[test]
fn per_node_metrics_reconcile_under_mixed_faults() {
    let left = synthetic_sized(24, 14, 21);
    let right = synthetic_sized(12, 14, 22);
    let tau = 1;
    let catalog = freeze(&left, tau, 4);
    let snapshot = catalog.to_bytes();
    let seeds = match env_fault_seed() {
        Some(seed) => vec![seed],
        None => vec![0x5EED, 0xBAD_CAFE, 7, 424242],
    };
    for seed in seeds {
        let mut cfg = ClusterConfig::new(3, 2);
        cfg.faults = FaultPlan {
            seed,
            delay_permille: 220,
            delay_ms: 8,
            timeout_permille: 120,
            transient_permille: 150,
            node_down_permille: 60,
            ..FaultPlan::none()
        };
        let mut cluster = Cluster::from_snapshot(snapshot.clone(), &cfg).unwrap();
        cluster
            .router_mut()
            .set_clock(Arc::new(VirtualClock::new()));
        let served = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();
        let nodes = cluster.router().metrics();
        assert!(
            nodes.iter().any(|n| n.attempts > 0),
            "TSJ_FAULT_SEED={seed:#x}: the storm exercised the router"
        );
        check_reconciled(seed, &served, &nodes);
    }
}

/// Metrics are cumulative across joins on the same cluster, and a killed
/// node's failovers land on the node that was down.
#[test]
fn metrics_accumulate_across_joins_and_attribute_failovers() {
    let left = synthetic_sized(16, 14, 21);
    let right = synthetic_sized(6, 14, 23);
    let tau = 1;
    let catalog = freeze(&left, tau, 2);
    let mut cluster =
        Cluster::from_snapshot(catalog.to_bytes(), &ClusterConfig::new(2, 2)).unwrap();
    cluster
        .router_mut()
        .set_clock(Arc::new(VirtualClock::new()));

    let first = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();
    assert!(first.is_complete());
    let after_one = cluster.router().metrics();
    let served_once: u64 = after_one.iter().map(|n| n.served).sum();
    assert_eq!(served_once, first.telemetry.served);

    cluster.router_mut().kill_node(0);
    let second = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();
    assert!(second.is_complete(), "replica covers the dead node");
    let after_two = cluster.router().metrics();
    assert_eq!(
        after_two.iter().map(|n| n.served).sum::<u64>(),
        first.telemetry.served + second.telemetry.served,
        "counters are cumulative across joins"
    );
    assert!(!after_two[0].alive);
    assert_eq!(
        after_two[0].served, after_one[0].served,
        "a dead node serves nothing new"
    );
    assert!(
        after_two[1].served > after_one[1].served,
        "the replica absorbed the dead node's share"
    );
}

/// Registered series survive into the raw snapshot with the documented
/// naming scheme, so the exporters downstream see stable names.
#[test]
fn snapshot_uses_the_documented_series_names() {
    let left = synthetic_sized(16, 14, 21);
    let right = synthetic_sized(4, 14, 23);
    let tau = 1;
    let catalog = freeze(&left, tau, 2);
    let mut cluster =
        Cluster::from_snapshot(catalog.to_bytes(), &ClusterConfig::new(2, 1)).unwrap();
    let served = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();
    assert!(served.is_complete());
    let snapshot = cluster.router().metrics_snapshot();
    let total: u64 = (0..2)
        .map(|n| {
            snapshot
                .counter(&format!(
                    "tsj_cluster_requests_served_total{{node=\"{n}\"}}"
                ))
                .expect("series registered per node")
        })
        .sum();
    assert_eq!(total, served.telemetry.served);
    assert!(snapshot
        .histogram("tsj_cluster_request_latency_ms{node=\"0\"}")
        .is_some());
}
