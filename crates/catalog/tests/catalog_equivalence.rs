//! The catalog's headline guarantee: **freeze → save → load → join is
//! bit-identical to the direct joins** — same pairs *and* same candidate
//! counts — across shard counts × thresholds × window policies, and the
//! per-query-τ contract holds (any `τ_q ≤ τ_frozen` reproduces the
//! direct join at `τ_q` exactly).

use partsj::{partsj_join_rs, PartSjConfig, VerifyConfig, WindowPolicy};
use tsj_catalog::{Catalog, CatalogError};
use tsj_datagen::{swissprot_like, synthetic_sized};
use tsj_shard::{sharded_rs_join, ShardConfig};
use tsj_ted::{ted, TreeIdx};
use tsj_tree::Tree;

/// Freeze `left`, push it through a full byte round trip, and return the
/// reloaded catalog.
fn frozen_round_trip(left: &[Tree], tau: u32, config: &PartSjConfig, shards: usize) -> Catalog {
    let catalog = Catalog::freeze(
        left.to_vec(),
        tsj_tree::LabelInterner::new(),
        tau,
        config,
        &ShardConfig {
            shards,
            probe_threads: 1,
            verify_threads: 1,
            ..Default::default()
        },
    );
    Catalog::from_bytes(catalog.to_bytes()).expect("round trip")
}

#[test]
fn loaded_catalog_join_bit_identical_to_direct_joins() {
    let left = synthetic_sized(60, 24, 311);
    let right = synthetic_sized(70, 24, 412);
    for tau in [0u32, 1, 3] {
        let config = PartSjConfig::default();
        let reference = partsj_join_rs(&left, &right, tau, &config);
        for shards in [1usize, 2, 4] {
            let shard_cfg = ShardConfig {
                shards,
                probe_threads: 1,
                verify_threads: 1,
                ..Default::default()
            };
            let direct = sharded_rs_join(&left, &right, tau, &config, &shard_cfg);
            assert_eq!(direct.pairs, reference.pairs, "sharded vs rs, tau = {tau}");

            let catalog = frozen_round_trip(&left, tau, &config, shards);
            let served = catalog.join(&right, tau, &config, &shard_cfg).unwrap();
            assert_eq!(
                served.pairs, direct.pairs,
                "catalog pairs, shards = {shards}, tau = {tau}"
            );
            assert_eq!(
                served.stats.work(),
                direct.stats.work(),
                "catalog stats, shards = {shards}, tau = {tau}"
            );
        }
    }
}

#[test]
fn round_trip_holds_for_every_window_policy() {
    let left = synthetic_sized(40, 20, 99);
    let right = synthetic_sized(45, 20, 98);
    let tau = 2u32;
    for window in [
        WindowPolicy::Safe,
        WindowPolicy::Tight,
        WindowPolicy::PaperAbsolute,
    ] {
        let config = PartSjConfig::with_window(window);
        let shard_cfg = ShardConfig {
            shards: 2,
            probe_threads: 1,
            verify_threads: 1,
            ..Default::default()
        };
        let direct = sharded_rs_join(&left, &right, tau, &config, &shard_cfg);
        let catalog = frozen_round_trip(&left, tau, &config, 2);
        assert_eq!(catalog.window(), window);
        let served = catalog.join(&right, tau, &config, &shard_cfg).unwrap();
        assert_eq!(served.pairs, direct.pairs, "{window:?}");
        assert_eq!(served.stats.work(), direct.stats.work(), "{window:?}");
    }
}

#[test]
fn pooled_probe_and_verify_threads_match_inline() {
    let left = synthetic_sized(50, 22, 5);
    let right = synthetic_sized(90, 22, 6);
    let tau = 2u32;
    let config = PartSjConfig {
        parallel_fallback: 0,
        verify_batch: 8,
        ..Default::default()
    };
    let catalog = frozen_round_trip(&left, tau, &config, 4);
    let inline = catalog
        .join(
            &right,
            tau,
            &config,
            &ShardConfig {
                shards: 4,
                probe_threads: 1,
                verify_threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
    // Probe-heavy, and one prober feeding a verifier pool.
    for (probe_threads, verify_threads) in [(3, 2), (1, 3)] {
        let pooled = catalog
            .join(
                &right,
                tau,
                &config,
                &ShardConfig {
                    shards: 4,
                    probe_threads,
                    verify_threads,
                    ..Default::default()
                },
            )
            .unwrap();
        let row = format!("pool = {probe_threads}x{verify_threads}");
        assert_eq!(pooled.pairs, inline.pairs, "{row}");
        assert_eq!(pooled.stats.work(), inline.stats.work(), "{row}");
    }
}

/// One snapshot, many thresholds: a catalog frozen at `τ_f` answers any
/// `τ_q ≤ τ_f` with exactly the pairs of a direct join at `τ_q`.
#[test]
fn per_query_tau_reproduces_direct_joins() {
    let left = synthetic_sized(50, 20, 21);
    let right = synthetic_sized(55, 20, 22);
    let config = PartSjConfig::default();
    let frozen_tau = 3u32;
    let catalog = frozen_round_trip(&left, frozen_tau, &config, 4);
    let shard_cfg = ShardConfig {
        shards: 4,
        probe_threads: 1,
        verify_threads: 1,
        ..Default::default()
    };
    for tau_q in 0..=frozen_tau {
        let reference = partsj_join_rs(&left, &right, tau_q, &config);
        let served = catalog.join(&right, tau_q, &config, &shard_cfg).unwrap();
        assert_eq!(served.pairs, reference.pairs, "tau_q = {tau_q}");
        // The frozen (wider) windows may surface extra candidates at
        // smaller thresholds; they may never drop one.
        assert!(
            served.stats.candidates >= reference.stats.candidates,
            "tau_q = {tau_q}: frozen candidates {} < direct {}",
            served.stats.candidates,
            reference.stats.candidates
        );
    }
    assert!(matches!(
        catalog.join(&right, frozen_tau + 1, &config, &shard_cfg),
        Err(CatalogError::TauExceedsFrozen {
            query: 4,
            frozen: 3
        })
    ));
}

/// Point queries return exactly the brute-force `(tree, distance)`
/// hits — under every verification-chain configuration: `check_exact`
/// must never surface an inexact upper-bound certificate. The
/// swissprot-like side is mother-tree based (many rename-only
/// near-duplicates), so the shape-accept stage actually fires.
#[test]
fn single_probe_query_matches_linear_ted_scan() {
    let default = PartSjConfig::default();
    for (left, probes) in [
        (synthetic_sized(40, 18, 77), synthetic_sized(8, 18, 78)),
        (swissprot_like(40, 33), swissprot_like(8, 34)),
    ] {
        let catalog = frozen_round_trip(&left, 3, &default, 2);
        for tau_q in 0..=3u32 {
            // Fresh probes, plus two catalog members (which must at
            // least find themselves, at distance 0).
            for probe in probes.iter().chain(&left[..2]) {
                let expected: Vec<(TreeIdx, u32)> = left
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| {
                        let d = ted(t, probe);
                        (d <= tau_q).then_some((i as TreeIdx, d))
                    })
                    .collect();
                for mask in 0u32..16 {
                    let verify = VerifyConfig {
                        size: mask & 1 != 0,
                        shape_accept: mask & 2 != 0,
                        histogram: mask & 4 != 0,
                        traversal: mask & 8 != 0,
                    };
                    let config = PartSjConfig { verify, ..default };
                    let hits = catalog.query(probe, tau_q, &config).unwrap();
                    assert_eq!(hits, expected, "tau_q = {tau_q}, verify = {verify:?}");
                }
            }
        }
    }
}

#[test]
fn save_and_load_through_the_filesystem() {
    let left = synthetic_sized(30, 20, 55);
    let right = synthetic_sized(30, 20, 56);
    let config = PartSjConfig::default();
    let catalog = Catalog::freeze(
        left.clone(),
        tsj_tree::LabelInterner::new(),
        2,
        &config,
        &ShardConfig::with_shards(2),
    );
    let dir = std::env::temp_dir().join(format!("tsj-catalog-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("catalog.tsjcat");
    catalog.save(&path).unwrap();
    let loaded = Catalog::load(&path).unwrap();
    let shard_cfg = ShardConfig {
        shards: 2,
        probe_threads: 1,
        verify_threads: 1,
        ..Default::default()
    };
    let a = catalog.join(&right, 2, &config, &shard_cfg).unwrap();
    let b = loaded.join(&right, 2, &config, &shard_cfg).unwrap();
    assert_eq!(a.pairs, b.pairs);
    assert_eq!(a.stats.work(), b.stats.work());
    std::fs::remove_dir_all(&dir).unwrap();
}
