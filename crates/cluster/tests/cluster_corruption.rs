//! The snapshot corruption suite, extended to the **cluster load path**:
//! a node restoring from a damaged snapshot copy must come up down with
//! the typed [`CatalogError`] attached — never a panic, never a silently
//! wrong index — and the rest of the cluster must keep serving (completely
//! when a replica covers the loss, degraded-with-report when not).

use partsj::PartSjConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsj_catalog::{Catalog, CatalogError, SnapshotReader};
use tsj_cluster::{Cluster, ClusterConfig, ClusterError, FaultPlan};
use tsj_datagen::synthetic_sized;
use tsj_shard::ShardConfig;
use tsj_ted::JoinOutcome;
use tsj_tree::{LabelInterner, Tree};

fn freeze(left: &[Tree], tau: u32, shards: usize) -> Catalog {
    Catalog::freeze(
        left.to_vec(),
        LabelInterner::new(),
        tau,
        &PartSjConfig::default(),
        &ShardConfig {
            shards,
            probe_threads: 1,
            verify_threads: 1,
            ..Default::default()
        },
    )
}

fn reference(catalog: &Catalog, probes: &[Tree], tau: u32) -> JoinOutcome {
    catalog
        .join(
            probes,
            tau,
            &PartSjConfig::default(),
            &ShardConfig {
                probe_threads: 1,
                verify_threads: 1,
                ..Default::default()
            },
        )
        .unwrap()
}

/// A corrupted private copy downs exactly that node, the error is the
/// typed snapshot error, and the replica serves the identical join.
#[test]
fn corrupted_node_copy_fails_over_to_the_clean_replica() {
    let left = synthetic_sized(24, 16, 71);
    let right = synthetic_sized(20, 16, 72);
    let tau = 1;
    let catalog = freeze(&left, tau, 4);
    let expected = reference(&catalog, &right, tau);
    let clean = catalog.to_bytes();
    let reader = SnapshotReader::from_bytes(clean.clone()).unwrap();

    for shard in 0..4usize {
        let mut dirty = clean.clone();
        let range = reader.shard_section_range(shard).unwrap();
        tsj_cluster::corrupt_range(&mut dirty, range, 0xBAD + shard as u64);

        // Two nodes, R = 2: both own every shard; node 0 holds the
        // damaged copy, node 1 the clean one.
        let mut cluster =
            Cluster::from_node_snapshots(vec![dirty, clean.clone()], &ClusterConfig::new(2, 2))
                .unwrap();
        match cluster.node_error(0) {
            Some(ClusterError::Snapshot(CatalogError::ChecksumMismatch { section })) => {
                assert!(section.starts_with("shard"), "section was {section}");
            }
            other => panic!("shard {shard}: expected a typed checksum error, got {other:?}"),
        }
        assert_eq!(cluster.alive_nodes(), vec![1]);

        let served = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();
        assert!(served.is_complete(), "shard {shard}: replica must cover");
        assert_eq!(served.outcome.pairs, expected.pairs);
        assert_eq!(served.outcome.stats.work(), expected.stats.work());
    }
}

/// The same path driven by the fault plan: [`FaultPlan::corrupt_on_load`]
/// damages the named node's copy inside `Cluster::from_snapshot` itself.
#[test]
fn corrupt_on_load_fault_downs_the_planned_node() {
    let left = synthetic_sized(24, 16, 71);
    let right = synthetic_sized(20, 16, 72);
    let tau = 1;
    let catalog = freeze(&left, tau, 4);
    let expected = reference(&catalog, &right, tau);
    let mut cfg = ClusterConfig::new(2, 2);
    cfg.faults = FaultPlan {
        seed: 99,
        corrupt_on_load: vec![0],
        ..FaultPlan::none()
    };
    let mut cluster = Cluster::from_snapshot(catalog.to_bytes(), &cfg).unwrap();
    assert!(cluster.node_error(0).is_some());
    assert_eq!(cluster.alive_nodes(), vec![1]);
    let served = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();
    assert!(served.is_complete());
    assert_eq!(served.outcome.pairs, expected.pairs);
}

/// Without replication, a corrupted copy degrades the shards only the
/// downed node held: typed coverage report, surviving shards' pairs
/// served exactly.
#[test]
fn unreplicated_corruption_degrades_with_exact_coverage() {
    let left = synthetic_sized(24, 16, 71);
    let right = synthetic_sized(20, 16, 72);
    let tau = 1;
    let catalog = freeze(&left, tau, 4);
    let expected = reference(&catalog, &right, tau);
    let owner = |size: u32| catalog.index().shard_of_size(size) as u32;
    let clean = catalog.to_bytes();
    let reader = SnapshotReader::from_bytes(clean.clone()).unwrap();

    // Two nodes, R = 1 over 4 shards: node 0 holds shards {0, 2}, node 1
    // holds {1, 3}. Corrupt shard 0's section in node 0's copy.
    let mut dirty = clean.clone();
    let range = reader.shard_section_range(0).unwrap();
    tsj_cluster::corrupt_range(&mut dirty, range, 0xDEAD);
    let mut cluster =
        Cluster::from_node_snapshots(vec![dirty, clean], &ClusterConfig::new(2, 1)).unwrap();
    assert!(cluster.node_error(0).is_some());
    assert_eq!(cluster.lost_shards(), vec![0, 2]);

    let served = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();
    let degraded = served.degraded.as_ref().expect("loss must be reported");
    assert_eq!(degraded.lost_shards, vec![0, 2]);
    for &(_, class) in &degraded.unserved {
        assert!(owner(class) == 0 || owner(class) == 2);
    }
    let surviving: Vec<(u32, u32)> = expected
        .pairs
        .iter()
        .copied()
        .filter(|&(i, _)| {
            let shard = owner(left[i as usize].len() as u32);
            shard != 0 && shard != 2
        })
        .collect();
    assert_eq!(served.outcome.pairs, surviving);
}

/// When *no* node's copy parses, construction fails with the typed error
/// instead of producing an unservable cluster.
#[test]
fn all_copies_damaged_is_a_construction_error() {
    let catalog = freeze(&synthetic_sized(12, 14, 71), 1, 2);
    let bytes = catalog.to_bytes();
    let mut a = bytes.clone();
    a.truncate(10);
    let mut b = bytes;
    b[..8].copy_from_slice(b"NOTACATL");
    match Cluster::from_node_snapshots(vec![a, b], &ClusterConfig::new(2, 2)) {
        Err(ClusterError::Snapshot(_)) => {}
        other => panic!("expected a typed snapshot error, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random multi-byte corruptions anywhere inside any shard section of
    /// a node's v2 snapshot copy: the node always comes up down with a
    /// typed error (never a panic), and the R = 2 cluster always serves
    /// the complete, correct join from the clean replica.
    #[test]
    fn random_shard_section_damage_never_panics_and_never_lies(
        seed in any::<u64>(),
        nflips in 1usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let left = synthetic_sized(16, 14, 71);
        let right = synthetic_sized(12, 14, 72);
        let tau = 1;
        let catalog = freeze(&left, tau, 4);
        let expected = reference(&catalog, &right, tau);
        let clean = catalog.to_bytes();
        let reader = SnapshotReader::from_bytes(clean.clone()).unwrap();

        let shard = (seed % 4) as usize;
        let range = reader.shard_section_range(shard).unwrap();
        let mut dirty = clean.clone();
        // Distinct offsets, non-zero masks: the copy is guaranteed to
        // differ from the clean bytes inside a checksummed section.
        let mut touched = Vec::new();
        for _ in 0..nflips {
            let pos = range.start + rng.gen_range(0..range.len());
            let mask = rng.gen_range(1u8..=255);
            if !touched.contains(&pos) {
                touched.push(pos);
                dirty[pos] ^= mask;
            }
        }

        let mut cluster = Cluster::from_node_snapshots(
            vec![dirty, clean],
            &ClusterConfig::new(2, 2),
        ).unwrap();
        prop_assert!(
            matches!(cluster.node_error(0), Some(ClusterError::Snapshot(_))),
            "damage must surface as the typed snapshot error: {:?}",
            cluster.node_error(0)
        );
        prop_assert_eq!(cluster.alive_nodes(), vec![1]);
        let served = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();
        prop_assert!(served.is_complete());
        prop_assert_eq!(&served.outcome.pairs, &expected.pairs);
        prop_assert_eq!(served.outcome.stats.work(), expected.stats.work());
    }
}
