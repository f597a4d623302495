//! Deterministic retry/backoff behavior, asserted to the millisecond on
//! an injectable [`VirtualClock`]: the router sleeps *exactly* the
//! jittered exponential schedule [`backoff_ms`] promises, a
//! probe's deadline cuts retries off precisely where the accounting says,
//! and injected delays are absorbed or converted to timeouts without ever
//! double-counting work.

mod common;

use common::{freeze, reference};
use partsj::{window_of, PartSjConfig};
use std::sync::Arc;
use tsj_catalog::Catalog;
use tsj_cluster::{
    backoff_bounds_ms, backoff_ms, Clock, Cluster, ClusterConfig, FaultPlan, RetryPolicy,
    VirtualClock, MAX_ATTEMPTS,
};
use tsj_datagen::synthetic_sized;
use tsj_tree::Tree;

/// The shard requests `Cluster::join` plans for `probes` — replicated
/// here so the tests can compute expected schedules independently.
fn planned_requests(catalog: &Catalog, probes: &[Tree], tau: u32) -> Vec<(u32, u32)> {
    let mut requests = Vec::new();
    for (j, tree) in probes.iter().enumerate() {
        let (lo, hi) = window_of(tree.len() as u32, tau);
        let mut shards: Vec<u32> = (lo..=hi)
            .map(|c| catalog.index().shard_of_size(c) as u32)
            .collect();
        shards.sort_unstable();
        shards.dedup();
        requests.extend(shards.into_iter().map(|s| (j as u32, s)));
    }
    requests
}

/// Under a 100% transient-error storm every request exhausts its retries,
/// and the virtual clock must land on *exactly* the sum of the
/// jittered backoffs — the schedule is a pure function of the seed and the
/// request coordinates.
#[test]
fn transient_storm_sleeps_the_exact_backoff_schedule() {
    let left = synthetic_sized(16, 14, 21);
    let right = synthetic_sized(10, 14, 22);
    let tau = 1;
    let catalog = freeze(&left, tau, 2);
    let plan = FaultPlan {
        seed: 0x5EED,
        transient_permille: 1000,
        ..FaultPlan::none()
    };
    let mut cfg = ClusterConfig::new(2, 2);
    cfg.faults = plan.clone();
    let clock = Arc::new(VirtualClock::new());
    let mut cluster = Cluster::from_snapshot(catalog.to_bytes(), &cfg).unwrap();
    cluster.router_mut().set_clock(clock.clone());
    let served = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();

    let requests = planned_requests(&catalog, &right, tau);
    let mut expected_ms = 0u64;
    for &(probe, shard) in &requests {
        for retry in 1..MAX_ATTEMPTS {
            let backoff = backoff_ms(plan.seed, probe, shard, retry);
            let (lo, hi) = backoff_bounds_ms(retry);
            assert!(
                (lo..=hi).contains(&backoff),
                "retry {retry}: {backoff} outside [{lo}, {hi}]"
            );
            expected_ms += backoff;
        }
    }
    assert!(expected_ms > 0);
    assert_eq!(clock.now_ms(), expected_ms, "clock is exactly the schedule");
    assert_eq!(served.telemetry.backoff_ms, expected_ms);
    let n = requests.len() as u64;
    assert_eq!(served.telemetry.requests, n);
    assert_eq!(served.telemetry.served, 0);
    assert_eq!(served.telemetry.retries, n * u64::from(MAX_ATTEMPTS - 1));
    assert_eq!(served.telemetry.faults, n * u64::from(MAX_ATTEMPTS));
    assert!(!served.is_complete());
    assert!(served.outcome.pairs.is_empty());
}

/// The per-probe deadline cuts the retry sequence exactly where the
/// accounting says: a 50 ms timeout plus the first backoff fits a
/// deadline of exactly their sum once, and the next timeout exhausts it.
#[test]
fn probe_deadline_cuts_retries_off_exactly() {
    let left = synthetic_sized(16, 14, 21);
    let probe = synthetic_sized(1, 14, 23);
    let tau = 1;
    // One shard: the single probe plans exactly one request.
    let catalog = freeze(&left, tau, 1);
    let [(probe_idx, shard)] = planned_requests(&catalog, &probe, tau)[..] else {
        panic!("one probe on one shard plans one request");
    };
    let mut cfg = ClusterConfig::new(2, 2);
    cfg.faults = FaultPlan {
        seed: 7,
        timeout_permille: 1000,
        ..FaultPlan::none()
    };
    let backoff = backoff_ms(cfg.faults.seed, probe_idx, shard, 1);
    cfg.retry = RetryPolicy {
        request_timeout_ms: 50,
        probe_deadline_ms: 50 + backoff,
    };
    let clock = Arc::new(VirtualClock::new());
    let mut cluster = Cluster::from_snapshot(catalog.to_bytes(), &cfg).unwrap();
    cluster.router_mut().set_clock(clock.clone());
    let served = cluster.join(&probe, tau, &PartSjConfig::default()).unwrap();

    // Scatter: timeout (spent 50). Retry 1: the backoff (spent exactly
    // the deadline), then another timeout (spent past it) — done. Retry 2
    // never happens: its backoff alone would breach the deadline.
    assert_eq!(served.telemetry.requests, 1);
    assert_eq!(served.telemetry.retries, 1);
    assert_eq!(served.telemetry.faults, 2);
    assert_eq!(served.telemetry.backoff_ms, backoff);
    assert_eq!(clock.now_ms(), backoff, "only the one backoff was slept");
    assert!(!served.is_complete());
}

/// Delays within the request timeout are absorbed: the join completes
/// with the exact fault-free result, only later by the injected latency.
#[test]
fn delays_within_timeout_are_absorbed_not_retried() {
    let left = synthetic_sized(16, 14, 21);
    let right = synthetic_sized(10, 14, 22);
    let tau = 1;
    let catalog = freeze(&left, tau, 2);
    let expected = reference(&catalog, &right, tau);
    let mut cfg = ClusterConfig::new(2, 2);
    cfg.faults = FaultPlan {
        seed: 7,
        delay_permille: 1000,
        delay_ms: 5,
        ..FaultPlan::none()
    };
    let clock = Arc::new(VirtualClock::new());
    let mut cluster = Cluster::from_snapshot(catalog.to_bytes(), &cfg).unwrap();
    cluster.router_mut().set_clock(clock.clone());
    let served = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();

    assert!(served.is_complete());
    assert_eq!(served.outcome.pairs, expected.pairs);
    assert_eq!(served.outcome.stats.work(), expected.stats.work());
    let n = planned_requests(&catalog, &right, tau).len() as u64;
    assert_eq!(served.telemetry.retries, 0, "absorbed, never retried");
    assert_eq!(served.telemetry.delay_ms, 5 * n);
    assert_eq!(clock.now_ms(), 5 * n);
}

/// A delay longer than the request timeout *is* a timeout: the response
/// is discarded before any work runs, so a fully delayed cluster serves
/// nothing — and counts nothing (no half-computed stats ever leak).
#[test]
fn delays_beyond_timeout_become_timeouts_without_double_counting() {
    let left = synthetic_sized(16, 14, 21);
    let right = synthetic_sized(10, 14, 22);
    let tau = 1;
    let catalog = freeze(&left, tau, 2);
    let mut cfg = ClusterConfig::new(2, 2);
    cfg.faults = FaultPlan {
        seed: 7,
        delay_permille: 1000,
        delay_ms: 60, // > the 50 ms request timeout
        ..FaultPlan::none()
    };
    let mut cluster = Cluster::from_snapshot(catalog.to_bytes(), &cfg).unwrap();
    let served = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();

    assert_eq!(served.telemetry.served, 0);
    assert!(served.outcome.pairs.is_empty());
    assert_eq!(
        served.outcome.stats.candidates, 0,
        "no discarded work leaks"
    );
    assert_eq!(served.outcome.stats.ted_calls, 0);
    let degraded = served.degraded.expect("nothing was served");
    // Everything planned is reported unserved: full coverage accounting.
    let mut expected_unserved = Vec::new();
    for (j, tree) in right.iter().enumerate() {
        let (lo, hi) = window_of(tree.len() as u32, tau);
        expected_unserved.extend((lo..=hi).map(|c| (j as u32, c)));
    }
    expected_unserved.sort_unstable();
    expected_unserved.dedup();
    assert_eq!(degraded.unserved, expected_unserved);
    assert!(degraded.lost_shards.is_empty(), "the loss was transient");
}
