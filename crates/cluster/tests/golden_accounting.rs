//! The router's accounting, pinned to exact values.
//!
//! `metrics_reconcile` and `fault_matrix` check invariants — sums that
//! agree, replays that repeat — which a bookkeeping drift that keeps the
//! sums consistent would still pass. This suite pins what four seeded
//! mixed-fault joins produce, value for value: the whole [`Telemetry`]
//! (every `RequestStats` row), the [`Degraded`] report and the per-node
//! metrics, on a [`VirtualClock`]. The storm is `metrics_reconcile`'s, at
//! replication 1 and 2, two seeds each.
//!
//! The pins are FNV-1a digests of the `Debug` text of
//! `(telemetry, degraded, metrics)`; a mismatch prints the text, so the
//! drift can be diffed against a run of the previous commit.

mod common;

use common::freeze;
use partsj::PartSjConfig;
use std::sync::Arc;
use tsj_cluster::{Cluster, ClusterConfig, FaultPlan, VirtualClock};
use tsj_datagen::synthetic_sized;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The accounting of one storm join at `(seed, replication)`, as text.
fn accounting(seed: u64, replication: usize) -> String {
    let left = synthetic_sized(24, 14, 21);
    let right = synthetic_sized(12, 14, 22);
    let tau = 1;
    let catalog = freeze(&left, tau, 4);
    let mut cfg = ClusterConfig::new(3, replication);
    cfg.faults = FaultPlan {
        seed,
        delay_permille: 220,
        delay_ms: 8,
        timeout_permille: 120,
        transient_permille: 150,
        node_down_permille: 60,
        ..FaultPlan::none()
    };
    let mut cluster = Cluster::from_snapshot(catalog.to_bytes(), &cfg).unwrap();
    cluster
        .router_mut()
        .set_clock(Arc::new(VirtualClock::new()));
    let served = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();
    format!(
        "{:#?}\n{:#?}\n{:#?}",
        served.telemetry,
        served.degraded,
        cluster.router().metrics()
    )
}

#[test]
fn storm_accounting_matches_the_pinned_values() {
    assert!(
        tsj_obs::global().is_enabled(),
        "per-node metrics need the global registry enabled"
    );
    let pinned: [(u64, usize, u64); 4] = [
        (0x5EED, 1, 0x101e_9ad3_000f_4048),
        (0x5EED, 2, 0xd9a6_04a8_69db_59e7),
        (0xBAD_CAFE, 1, 0x8514_20c9_2421_aeb3),
        (0xBAD_CAFE, 2, 0x031e_9e70_2024_dff0),
    ];
    let mut drifted = Vec::new();
    for (seed, replication, digest) in pinned {
        let text = accounting(seed, replication);
        let got = fnv1a(text.as_bytes());
        if got != digest {
            eprintln!("TSJ_FAULT_SEED={seed:#x} R={replication}: digest {got:#018x}\n{text}");
            drifted.push((seed, replication, got));
        }
    }
    assert!(drifted.is_empty(), "accounting drifted: {drifted:x?}");
}
