//! The snapshot corruption suite, extended to the **cluster load path**:
//! a node restoring from a damaged snapshot copy must come up down with
//! the typed [`CatalogError`] attached — never a panic, never a silently
//! wrong index — and the rest of the cluster must keep serving (completely
//! when a replica covers the loss, degraded-with-report when not).

mod common;

use common::{crafted, freeze, reference, Flaw};
use partsj::PartSjConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsj_catalog::snapshot::{
    assemble, encode_labels, encode_shard, encode_shard_map, encode_trees,
};
use tsj_catalog::{Catalog, CatalogError, SnapshotReader};
use tsj_cluster::{Cluster, ClusterConfig, ClusterError, Node};
use tsj_datagen::synthetic_sized;
use tsj_ted::JoinOutcome;
use tsj_tree::Tree;

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
        assert_eq!(cluster.router().alive_nodes(), vec![1]);

        let served = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();
        assert!(served.is_complete(), "shard {shard}: replica must cover");
        assert_eq!(served.outcome.pairs, expected.pairs);
        assert_eq!(served.outcome.stats.work(), expected.stats.work());
    }
}

/// An 8-shard catalog at τ = 1, probes with real matches, and the
/// single-node join they must reproduce.
fn eight_shard_fixture() -> (Catalog, Vec<Tree>, JoinOutcome) {
    let left = synthetic_sized(48, 20, 311);
    let mut right = synthetic_sized(24, 20, 413);
    right.extend(left.iter().step_by(5).cloned());
    let catalog = freeze(&left, 1, 8);
    let expected = reference(&catalog, &right, 1);
    (catalog, right, expected)
}

/// Checksum-valid but self-contradictory copies: every checksum passes,
/// so only the restore's cross-checks stand between the flaw and a
/// panicking or short-answering node. The node holding the crafted copy
/// comes up down with the typed `Corrupt`, the clean replica serves the
/// identical join — and with the crafted copy everywhere, no join is
/// ever a short `Complete`.
#[test]
fn inconsistent_node_copy_is_down_typed_and_never_answers_short() {
    let (catalog, right, expected) = eight_shard_fixture();
    let config = PartSjConfig::default();
    for flaw in Flaw::ALL {
        let dirty = crafted(&catalog, flaw);
        let copies = vec![dirty.clone(), catalog.to_bytes()];
        let mut cluster = Cluster::from_node_snapshots(copies, &ClusterConfig::new(2, 2)).unwrap();
        assert!(
            matches!(
                cluster.node_error(0),
                Some(ClusterError::Snapshot(CatalogError::Corrupt { .. }))
            ),
            "{flaw:?}: got {:?}",
            cluster.node_error(0)
        );
        assert_eq!(cluster.router().alive_nodes(), vec![1], "{flaw:?}");
        let served = cluster.join(&right, 1, &config).unwrap();
        assert!(served.is_complete(), "{flaw:?}: replica must cover");
        assert_eq!(served.outcome.pairs, expected.pairs, "{flaw:?}");
        assert_eq!(served.outcome.stats.work(), expected.stats.work());

        // The crafted copy on both nodes. R = 2: each owns every shard,
        // so each is down and every class goes unserved. R = 1: a node
        // whose own shards are consistent may serve them — omission
        // only, reported.
        for replication in [2usize, 1] {
            let cfg = ClusterConfig::new(2, replication);
            let mut cluster = Cluster::from_snapshot(dirty.clone(), &cfg).unwrap();
            if replication == 2 {
                assert!(cluster.router().alive_nodes().is_empty(), "{flaw:?}");
            }
            let served = cluster.join(&right, 1, &config).unwrap();
            let degraded = served.degraded.as_ref().expect("never a short Complete");
            assert!(!degraded.unserved.is_empty(), "{flaw:?}");
            let pairs = &served.outcome.pairs;
            assert!(pairs.len() < expected.pairs.len(), "{flaw:?}");
            assert!(pairs.iter().all(|p| expected.pairs.contains(p)), "{flaw:?}");
        }
    }
}

/// Recovery re-validates what it installs: with an inconsistent copy as
/// the section source, `recover` answers the typed `Corrupt` and moves
/// nothing — placement, node contents and service stay as they were.
#[test]
fn recovery_from_an_inconsistent_source_is_typed_and_moves_nothing() {
    let (catalog, right, expected) = eight_shard_fixture();
    let clean = catalog.to_bytes();
    for flaw in Flaw::ALL {
        // The first parseable copy — node 0's crafted one — is the
        // recovery source.
        let copies = vec![crafted(&catalog, flaw), clean.clone(), clean.clone()];
        let mut cluster = Cluster::from_node_snapshots(copies, &ClusterConfig::new(3, 2)).unwrap();
        cluster.router_mut().kill_node(0);
        let placement = |c: &Cluster| {
            (0..3)
                .map(|n| c.router().topology().shards_of(n))
                .collect::<Vec<_>>()
        };
        let before = placement(&cluster);
        assert!(
            matches!(
                cluster.recover(),
                Err(ClusterError::Snapshot(CatalogError::Corrupt { .. }))
            ),
            "{flaw:?}"
        );
        assert_eq!(placement(&cluster), before, "{flaw:?}: nothing moved");
        // R = 2 still covers node 0's loss from the two clean nodes.
        let served = cluster.join(&right, 1, &PartSjConfig::default()).unwrap();
        assert!(served.is_complete(), "{flaw:?}");
        assert_eq!(served.outcome.pairs, expected.pairs, "{flaw:?}");
        assert_eq!(served.outcome.stats.work(), expected.stats.work());
    }
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
    assert_eq!(cluster.router().lost_shards(), vec![0, 2]);

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

/// A node keeps no tree and no verification inputs for classes it does
/// not own, but it still validates the whole tree store: a
/// checksum-valid snapshot with one corrupt tree of an *unowned* class —
/// a label id out of range, or a parent that breaks the preorder — comes
/// up down with the typed `Corrupt`, like the tree's owner.
#[test]
fn a_corrupt_tree_of_an_unowned_class_is_caught_at_restore() {
    let catalog = freeze(&synthetic_sized(24, 16, 71), 1, 4);
    let map = catalog.index().shard_map();
    let trees = catalog.trees();
    let t = trees
        .iter()
        .position(|tree| tree.len() > 2)
        .expect("a tree with a grandchild");
    let owner_shard = map.shard_of(trees[t].len() as u32, 4);
    // Two nodes at R = 1: node `n` owns the shards `s` with `s % 2 == n`.
    let stranger = 1 - owner_shard % 2;
    // Tree `t`'s node 2 in the store: count, then per tree its node
    // count and `(label, parent)` pairs.
    let before: usize = trees[..t].iter().map(|tree| 4 + 8 * tree.len()).sum();
    let node_2 = 4 + before + 4 + 2 * 8;
    for (offset, value) in [(0, u32::MAX - 1), (4, 2)] {
        let mut store = encode_trees(trees);
        store[node_2 + offset..node_2 + offset + 4].copy_from_slice(&value.to_le_bytes());
        let mut sections = vec![
            encode_labels(catalog.labels()),
            store,
            encode_shard_map(map),
        ];
        let shard = |s| encode_shard(&catalog.index().shard_index(s).dump());
        sections.extend((0..4).map(shard));
        let dirty = assemble(1, catalog.index().window(), trees.len() as u32, &sections);
        let reader = SnapshotReader::from_bytes(dirty).unwrap();
        let owned = [stranger as u32, stranger as u32 + 2];
        let restored = Node::restore(stranger, &reader, &owned);
        assert!(
            matches!(
                restored,
                Err(ClusterError::Snapshot(CatalogError::Corrupt { .. }))
            ),
            "offset {offset}: expected a typed Corrupt, got {restored:?}"
        );
    }
}

/// A node holds verification inputs only for trees of its own classes,
/// so a posting of an owned shard that names a tree of another shard's
/// class would index inputs the node never prepared: a checksum-valid
/// snapshot with one such posting comes up down with the typed
/// `Corrupt` at restore, not a panic in a later request.
#[test]
fn a_posting_naming_a_tree_of_an_unowned_class_is_caught_at_restore() {
    let catalog = freeze(&synthetic_sized(24, 16, 71), 1, 4);
    let index = catalog.index();
    let (map, trees) = (index.shard_map(), catalog.trees());
    let shard_of = |t: usize| map.shard_of(trees[t].len() as u32, 4);
    // Two nodes at R = 1: node `n` owns the shards `s` with `s % 2 == n`.
    let owner = (0..4)
        .find(|&s| !index.shard_index(s).is_empty())
        .expect("a posting");
    let node = owner % 2;
    let stranger = (0..trees.len())
        .find(|&t| shard_of(t) % 2 != node)
        .expect("a tree of the other node's classes");
    let mut dump = index.shard_index(owner).dump();
    dump.metas[0].tree = stranger as u32;
    let mut sections = vec![
        encode_labels(catalog.labels()),
        encode_trees(trees),
        encode_shard_map(map),
    ];
    let shard = |s| encode_shard(&index.shard_index(s).dump());
    sections.extend((0..4).map(shard));
    sections[3 + owner] = encode_shard(&dump);
    let dirty = assemble(1, index.window(), trees.len() as u32, &sections);
    let reader = SnapshotReader::from_bytes(dirty).unwrap();
    let owned = [node as u32, node as u32 + 2];
    let restored = Node::restore(node, &reader, &owned);
    assert!(
        matches!(
            restored,
            Err(ClusterError::Snapshot(CatalogError::Corrupt { .. }))
        ),
        "expected a typed Corrupt, got {restored:?}"
    );
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
        prop_assert_eq!(cluster.router().alive_nodes(), vec![1]);
        let served = cluster.join(&right, tau, &PartSjConfig::default()).unwrap();
        prop_assert!(served.is_complete());
        prop_assert_eq!(&served.outcome.pairs, &expected.pairs);
        prop_assert_eq!(served.outcome.stats.work(), expected.stats.work());
    }
}
